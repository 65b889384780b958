(** A deterministic fixed-size Domain pool for independent simulations.

    The harness uses one simulation = one task: chaos-check seeds,
    experiment grid points and bench scenarios are all mutually
    independent, fully self-contained (own [Sim], [Obs], RNGs, database)
    and never print. The pool fans tasks out over OCaml 5 domains and
    hands results back to the caller {e in submission order}, so every
    user-visible artifact built from them (reports, tables, JSON) is
    byte-identical to the sequential run.

    [jobs = 1] is the exact legacy path: no domain is ever spawned and
    each task runs to completion on the calling domain before the next
    starts, interleaved with its [iter_ordered] callback just as the
    original sequential loops were. *)

type t

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()], capped at {!max_jobs}. *)

val max_jobs : int
(** Upper bound on pool size (memory: each task is a whole simulated
    cluster). *)

val create : jobs:int -> t
(** A pool of [jobs] worker domains ([jobs <= 1] spawns none).
    [jobs <= 0] means auto: {!default_jobs}. Values above {!max_jobs}
    are clamped. *)

val seq : t
(** The sequential pool ([jobs = 1]); {!shutdown} on it is a no-op. *)

val jobs : t -> int
(** Parallel width: number of tasks that can run simultaneously. *)

val run : t -> (unit -> 'a) list -> 'a list
(** Execute all thunks, returning results in submission order. If a
    task raised, the first raising task's exception (by submission
    order) is re-raised after all tasks have finished. *)

val iter_ordered : t -> (unit -> 'a) list -> f:(int -> 'a -> unit) -> unit
(** Like {!run}, but streams: [f i result] runs on the calling domain,
    in submission order, as soon as every task [<= i] has completed —
    so progressive output appears early yet stays byte-identical to the
    sequential run. [f] must not submit to the same pool. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map t f xs] is [run t (List.map (fun x () -> f x) xs)]. *)

val shutdown : t -> unit
(** Join all worker domains. Idempotent. Using the pool afterwards
    raises. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [create], run the function, always [shutdown]. *)

(** Domain-local values: the sanctioned form of cross-call state in
    [lib/] (a plain global [ref] would race and mix state across
    concurrent pool tasks). Each domain lazily builds its own value on
    first {!get}; a task that resets then reads it sees only its own
    domain's work. Used for the bench encode counter and the
    compressor's reusable match table. *)
module Local : sig
  type 'a t

  val create : (unit -> 'a) -> 'a t
  (** Create the key (itself immutable; safe at module level). The
      initialiser runs once per domain, on that domain's first {!get}. *)

  val get : 'a t -> 'a
  (** The calling domain's value. *)
end
