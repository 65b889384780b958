(** Deterministic pseudo-random number generation.

    A small, fast, splittable generator (SplitMix64). Every stochastic
    component of the simulator draws from an explicit [t] so that whole
    cluster runs are reproducible from a single seed. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator. Equal seeds yield equal
    streams. *)

val split : t -> t
(** [split t] derives a new, statistically independent generator and
    advances [t]. Used to give each node / client its own stream. *)

val bits64 : t -> int64
(** Next raw 64 bits. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound). Raises
    [Invalid_argument] if [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] draws uniformly from the inclusive range
    [lo, hi]. Raises [Invalid_argument] if [hi < lo]. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [0, bound). *)

val bool : t -> bool
(** Fair coin flip. *)

val chance : t -> float -> bool
(** [chance t p] is true with probability [p] (clamped to [0,1]). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniformly random element. Raises [Invalid_argument] on an empty
    array. *)

val exponential : t -> float -> float
(** [exponential t mean] draws from an exponential distribution with the
    given mean. Used for jitter and think times. *)
