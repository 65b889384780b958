(** Min-heap of timestamped events. Ties are broken by insertion order so
    simulation runs are fully deterministic. *)

type 'a t

val create : filler:'a -> 'a t
(** An empty queue. [filler] is the payload of the vacant slots, so an
    event that has been popped or cancelled is no longer reachable from
    the queue; it is never returned by {!pop}. *)

val is_empty : 'a t -> bool
val length : 'a t -> int

type 'a handle
(** A queued event, for {!cancel}. *)

val push : 'a t -> time:int -> 'a -> unit
(** Insert an event at the given timestamp. *)

val add : 'a t -> time:int -> 'a -> 'a handle
(** {!push}, returning a handle to the queued event. *)

val cancel : 'a t -> 'a handle -> unit
(** Remove a queued event in O(log n). A no-op once the event was popped
    or cancelled. Sequence numbers are taken at insertion, so the pop
    order of every other event is unchanged. *)

val peek_time : 'a t -> int option
(** Timestamp of the earliest event, if any. *)

val pop : 'a t -> (int * 'a) option
(** Remove and return the earliest event (FIFO among equal
    timestamps). *)
