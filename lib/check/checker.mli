(** The deterministic chaos checker.

    Drives seeded chaos scenarios ({!Scenario}) through full cluster
    simulations with the invariant oracles ({!Oracle}) attached, and
    shrinks any failure ({!Shrink}) to a one-line reproducer. Fixed
    seeds give byte-identical results, so a reproducer line is a
    complete bug report. *)

type outcome = {
  scenario : Scenario.t;
  violation : Oracle.violation option;
  commits : int;  (** client-observed commits *)
  aborts : int;
  timeouts : int;
  oracle_commits : int;  (** commit-log entries the oracles tracked *)
  lsns : int list;  (** final per-replica snapshot numbers *)
}

val run : ?trace:string -> Scenario.t -> outcome
(** Run one scenario to completion (or to the first violation). With
    [?trace], tracing is enabled for the whole run and a JSONL trace is
    written to the given path ({!Gg_harness.Driver.write_trace}). *)

val reproducer : Scenario.t -> Oracle.violation -> string
(** ["VIOLATION seed=... engine=... faults=... invariant=..."] — the
    line to paste into a regression test. *)

type failure = {
  original : Scenario.t;
  minimized : Scenario.t;
  min_violation : Oracle.violation;
  shrink_runs : int;
}

type report = {
  seeds_run : int;
  total_commits : int;
  failures : failure list;
}

val shrink_and_report :
  ?log:(string -> unit) -> Scenario.t -> Oracle.violation -> failure

val check :
  ?log:(string -> unit) ->
  ?variant:Geogauss.Params.variant ->
  ?isolation:Geogauss.Params.isolation ->
  ?ft:Geogauss.Params.ft_mode ->
  ?fast:bool ->
  ?base:int ->
  ?pool:Gg_par.Pool.t ->
  ?corrupt_frac:float ->
  ?merge_level:Geogauss.Params.merge_level ->
  ?fastpath:bool ->
  ?clock_skew_ms:int ->
  seeds:int ->
  unit ->
  report
(** Check seeds [base .. base + seeds - 1], shrinking every failure.
    [?log] receives one progress line per seed. The optional dimension
    pins restrict generation (e.g. only the [Optimistic] engine).
    [?pool] fans seeds out over domains; the log, report and exit
    status are byte-identical at every pool width (results are
    delivered in seed order, and each scenario simulation is fully
    self-contained). Default: sequential.

    [?corrupt_frac] pins a binary-frame corruption probability (default
    [0.0]); corrupted batches must be recovered by the stall-repair
    path, so the same oracles apply — except on GeoG-A scenarios, which
    the pin skips (a corrupted frame is a dropped frame, and the gossip
    engine makes no promises under drops). Like every pin it is applied
    after seed generation, so the drawn scenarios are the same ones the
    default sweep runs.

    [?merge_level] pins the epoch merge's conflict granularity (default
    [Row]), via {!Scenario.with_merge_level} — GeoG-A is coerced to the
    full engine. A [Column] sweep runs the same drawn scenarios through
    all five oracles with the column-level lattice active.

    [?fastpath] pins the clock-assisted speculative fast path (the
    [eocc] engine) on every scenario, via {!Scenario.with_fastpath} with
    the [?clock_skew_ms] budget (default 5 ms) — the variant is coerced
    to the full engine and a deterministic skew-burst schedule is
    appended. Externalization still gates on the confirm point, so the
    same five oracles apply at full strength: speculation may only waste
    simulated work, never change what clients observe. *)
