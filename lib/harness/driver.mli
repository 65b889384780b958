(** Closed-loop measurement drivers.

    {!run_engine} drives any baseline implementing
    {!Gg_engines.Engine.S}; {!run_engine_with} accepts a custom
    constructor (e.g. the Raft-replicated Calvin/Aria variants);
    {!run_geogauss} builds a full GeoGauss cluster with per-region
    clients. Every driver uses the paper's closed loop: each connection
    has one outstanding transaction at a time. All warm up, reset every
    instrument through one {!Gg_obs.Obs.reset_all} call, then measure
    over a fixed window of simulated time.

    Passing [?trace_file] to {!run_geogauss} enables tracing for the
    whole run (the warm-up reset clears the buffer, so the file covers
    the measurement window only) and writes a JSONL file next to the
    other results: one [meta] record, one [event] record per trace
    event, and a [snapshot] record of all counters every 100 ms of
    simulated time. Identical seeded runs produce byte-identical
    files. *)

type workload_gen = int -> unit -> Gg_workload.Op.txn
(** [gen node] returns that node's transaction generator. *)

type request_gen = int -> unit -> Geogauss.Txn.request
(** Request-level generator — what SQL-shaped workloads produce. *)

val ycsb_gens : Gg_workload.Ycsb.profile -> seed:int -> workload_gen
val tpcc_gens : Gg_workload.Tpcc.config -> seed:int -> workload_gen
val hotkey_gens : Gg_workload.Hotkey.profile -> seed:int -> workload_gen
val social_gens : Gg_workload.Social.profile -> seed:int -> workload_gen

val scan_req_gens : Gg_workload.Sqlgen.Scan.profile -> seed:int -> request_gen
val secidx_req_gens :
  Gg_workload.Sqlgen.Secidx.profile -> seed:int -> request_gen

val run_engine_with :
  make:
    (Gg_sim.Net.t ->
    node:int ->
    Gg_workload.Op.txn ->
    (Gg_engines.Engine.outcome -> unit) ->
    unit) ->
  topology:Gg_sim.Topology.t ->
  gen:workload_gen ->
  connections:int ->
  warmup_ms:int ->
  measure_ms:int ->
  label:string ->
  unit ->
  Result.t

val run_engine :
  (module Gg_engines.Engine.S) ->
  ?config:Gg_engines.Engine.config ->
  topology:Gg_sim.Topology.t ->
  gen:workload_gen ->
  connections:int ->
  warmup_ms:int ->
  measure_ms:int ->
  label:string ->
  unit ->
  Result.t

type geo_extra = {
  phase_means : (string * (float * float * float * float * float)) list;
      (** per-node (parse, exec, wait, merge, log) means in µs over
          committed transactions *)
  epoch_cells : (int * Geogauss.Metrics.epoch_cell) list;
      (** node 0's per-epoch commit counts and latencies (Fig 6) *)
  fastpath : int * int * int;
      (** [(speculations, confirms, mispredicts)] of the clock-assisted
          fast path, summed over nodes; all zero unless
          [Params.fastpath] is on *)
}

val write_trace :
  path:string ->
  label:string ->
  params:Geogauss.Params.t ->
  topology:Gg_sim.Topology.t ->
  nodes:int ->
  warmup_ms:int ->
  measure_ms:int ->
  window_start_us:int ->
  Gg_obs.Obs.t ->
  (int * (string * int) list) list ->
  unit
(** Dump the observability buffer as a JSONL trace file (one [meta]
    record — including the node→region name list and the measurement
    window's start instant — the buffered events, then the given
    [(at, counters)] snapshots — pass [[]] for none). Also used by the
    chaos checker to export a trace of a failing scenario. *)

val run_geogauss :
  ?params:Geogauss.Params.t ->
  ?connections:int ->
  ?req_gen:request_gen ->
  ?trace_file:string ->
  topology:Gg_sim.Topology.t ->
  load:(Gg_storage.Db.t -> unit) ->
  gen:workload_gen ->
  warmup_ms:int ->
  measure_ms:int ->
  label:string ->
  unit ->
  Result.t * geo_extra
(** Each region runs one {!Geogauss.Client} of [connections]
    connections. [req_gen] overrides [gen] with a request-level
    generator for SQL-shaped workloads ([gen] is then unused). *)
