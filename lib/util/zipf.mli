(** Zipfian-distributed integer sampling, as used by the YCSB benchmark.

    Implements the rejection-inversion free, precomputed-constant sampler
    from Gray et al. ("Quickly generating billion-record synthetic
    databases"), the same scheme the YCSB core workload uses. The skew
    parameter [theta] matches the paper's notation: [theta = 0] is uniform,
    [theta = 0.99] is highly skewed. *)

type t

val create : theta:float -> n:int -> t
(** [create ~theta ~n] prepares a sampler over the domain [0, n). Raises
    [Invalid_argument] if [n <= 0], [theta < 0] or [theta >= 1]. (YCSB
    restricts theta to [0, 1); the paper sweeps 0–0.99.) *)

val next : t -> Rng.t -> int
(** Draw a sample in [0, n). Item 0 is the most popular. *)

val scrambled : t -> Rng.t -> int
(** Like {!next} but applies a fixed hash scramble so hot items are spread
    over the key space (YCSB's "scrambled zipfian"). *)
