(** Benchmark clients: the paper's closed loop.

    Each connection has at most one outstanding transaction and submits
    the next one as soon as the previous commits or aborts, so the load
    never exceeds service capacity. Latency counts from submission.

    Clients are pinned to a home region; when the home node fails they
    time out and re-route to the nearest live node (Fig 13), returning
    home after recovery. *)

type t

type mode = Closed
(** The one serving model. [mode] and [create ?mode] stay only because
    the end-to-end benchmark ([bench/e2e/drive.ml]) names them. *)

val create :
  ?mode:mode ->
  Cluster.t ->
  home:int ->
  connections:int ->
  gen:(unit -> Txn.request) ->
  t
(** [gen] is called once per submission (deterministic workload
    generators make whole runs reproducible). The client's statistics
    reset with the cluster's {!Gg_obs.Obs.reset_all} (end of
    warm-up). *)

val start : t -> unit
(** Open [connections] connections. Idempotent: a second call does
    nothing. *)

val stop : t -> unit
(** Stop issuing new transactions (in-flight ones still finish). Final:
    a stopped client does not start again. *)

val committed : t -> int
val aborted : t -> int
val timeouts : t -> int

val latency : t -> Gg_util.Stats.Hist.t
(** Committed-transaction latency, from submission. *)

val timeline : t -> bucket_us:int -> (float * float * float) list
(** Per-time-bucket [(t_seconds, committed_per_s, mean_latency_ms)] —
    the Fig 13 view. Buckets with no commits report zero throughput and
    latency. *)
