(** Growable ring-buffer FIFO queue.

    [pop] overwrites the slot it vacates with the queue's [filler], so a
    dequeued element is no longer reachable from the queue. The stdlib's
    linked queue does not give that: its [take] leaves the dequeued
    cell's [next] link in place, so once one cell has been promoted to
    the major heap, every later cell (and what it holds) is promoted at
    the next minor collection too, even long after it has been dequeued.
    A long-lived queue of short-lived elements — a simulated CPU's run
    queue — then promotes every element that passes through it. *)

type 'a t

val create : filler:'a -> 'a t
(** An empty queue. [filler] occupies the vacant slots; it is never
    returned by {!pop}. *)

val push : 'a t -> 'a -> unit
(** Add at the back, doubling the ring when it is full. *)

val pop : 'a t -> 'a
(** Remove and return the front element.
    @raise Invalid_argument if the queue is empty. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val clear : 'a t -> unit
(** Drop every element; every slot holds the filler again. *)
