(** CPU resource model: [cores] parallel servers with a FIFO run queue.

    Models the compute side of a database node (the paper's machines have
    32 vCPUs): when all cores are busy, work queues and latency grows,
    which is what caps single-node throughput in the experiments. *)

type t

val create : Sim.t -> cores:int -> t

val run : t -> cost:int -> (unit -> unit) -> unit
(** [run t ~cost k] occupies one core for [cost] µs (queueing first if all
    cores are busy), then calls [k]. [cost <= 0] runs [k] on the next
    event without occupying a core. *)

val busy : t -> int
(** Cores currently occupied. *)

val queued : t -> int
(** Jobs waiting for a core. *)

val utilization : t -> since:int -> float
(** Average fraction of cores busy over the window [since, now]. *)
