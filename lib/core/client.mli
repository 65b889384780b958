(** Benchmark clients: the paper's closed loop, plus an open loop.

    {b Closed} matches the paper's serving model: each connection has at
    most one outstanding transaction and submits the next one as soon as
    the previous commits or aborts. Offered load can therefore never
    exceed service capacity — overload is structurally unobservable.

    {b Open} decouples offered load from service capacity: transactions
    arrive on a nonhomogeneous Poisson process shaped by an
    {!Gg_workload.Arrival.t} curve, [connections] caps concurrent
    submissions (connection-pool occupancy), excess arrivals wait in a
    bounded FIFO, and arrivals beyond the queue are shed. Latency is
    measured from {e arrival} (queueing delay included), and nothing
    retries — an abort or timeout frees the connection. This is the
    model that scales to millions of simulated users: the arrival curve
    stands for the user population (see
    {!Gg_workload.Arrival.implied_users}) while the pool stays bounded.

    Clients are pinned to a home region; when the home node fails they
    time out and re-route to the nearest live node (Fig 13), returning
    home after recovery. *)

type t

type mode =
  | Closed
  | Open of { arrival : Gg_workload.Arrival.t; queue_cap : int }

val create :
  ?mode:mode ->
  Cluster.t ->
  home:int ->
  connections:int ->
  gen:(unit -> Txn.request) ->
  t
(** [gen] is called once per submission (deterministic workload
    generators make whole runs reproducible). [mode] defaults to
    [Closed]. Open-loop arrival draws come from a private rng seeded
    from [(params.seed, home)], so the arrival process is deterministic
    and independent of cluster behaviour. *)

val start : t -> unit
val stop : t -> unit
(** Stop issuing new transactions (in-flight and already-queued ones
    still finish). *)

val committed : t -> int
val aborted : t -> int
val timeouts : t -> int

val offered : t -> int
(** Open loop: arrivals admitted by the thinning process since the last
    {!reset_stats} (dispatched + queued + shed). Always 0 closed. *)

val shed : t -> int
(** Open loop: arrivals dropped because the queue was full. *)

val queued : t -> int
(** Arrivals waiting for a connection right now. *)

val latency : t -> Gg_util.Stats.Hist.t
(** Committed-transaction latency. Closed loop: from submission. Open
    loop: from arrival, so queueing delay under overload shows up
    here. *)

val reset_stats : t -> unit
(** Clear counters/histograms (end of warm-up). Open loop: the queue
    and in-flight count are simulation state, not statistics, and
    survive the reset — a transaction that arrived during warm-up but
    commits inside the measured window counts with its full
    queue-inclusive latency. *)

val timeline : t -> bucket_us:int -> (float * float * float) list
(** Per-time-bucket [(t_seconds, committed_per_s, mean_latency_ms)] —
    the Fig 13 view. Buckets with no commits report zero throughput and
    latency. *)
