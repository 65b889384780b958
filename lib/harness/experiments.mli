(** The tables and figures of the paper's evaluation (§7), by name
    ({!names}). Each runs the relevant simulated-cluster experiments and
    renders paper-style tables.

    [fast] shrinks populations and measurement windows (used by tests
    and smoke runs); shapes remain, absolute numbers get noisier.

    [pool] fans the independent grid points of a figure (one cluster
    simulation each) out over a {!Gg_par.Pool} of domains. Results are
    collected in submission order and each simulation is fully
    self-contained, so the printed tables are byte-identical at every
    pool width; the default is sequential. *)

type setting = {
  ycsb_records : int;
  ycsb_connections : int;
  tpcc_cfg : Gg_workload.Tpcc.config;
  tpcc_connections : int;
  warmup_ms : int;
  measure_ms : int;
}
(** Knobs shared by all experiments. Exposed (with {!tables}) so tests
    can run tiny grids and byte-compare the rendered figure data across
    pool widths. *)

val setting : fast:bool -> setting
(** The standard settings {!run} uses. *)

val tables :
  ?pool:Gg_par.Pool.t -> setting:setting -> fast:bool -> string -> string list option
(** [tables ?pool ~setting ~fast name] runs experiment [name] and
    returns its rendered tables instead of printing them; [None] if the
    name is unknown. [fast] here only picks grid sizes (sweep points,
    epoch rows) — population/window knobs come from [setting]. *)

val names : string list
(** Canonical experiment names, in paper order:
    - [fig5]: cross-system throughput/latency on YCSB-RO/MC/HC and TPC-C;
    - [table2]: per-phase runtime of a committed TPC-C transaction for
      GeoG-S / GeoG-A / GeoGauss;
    - [fig6]: per-epoch commits and latency, GeoGauss vs GeoG-S (TPC-C);
    - [fig7]: throughput slowdown vs fraction of long transactions;
    - [table3]: compressed WAN traffic per transaction vs Calvin;
    - [fig8]: epoch length (1–200 ms);
    - [fig9]: isolation level (RC / RR / SI);
    - [fig10]: contention (Zipf theta sweep);
    - [fig11]: 3–15 replicas (China) and 3–25 (worldwide);
    - [fig12]: fault-tolerance modes vs Calvin-Raft / Aria-Raft;
    - [fig13]: throughput/latency across a node crash and recovery (one
      timeline simulation: sequential at any pool width).

    Not paper figures:
    - [ablations]: the §5.1 design choices (pipelining, merge
      parallelism, write-set size);
    - [fig_skew]: hotkey and social at both merge levels (DESIGN.md §13);
      warns on stderr unless column-level merge aborts strictly less on
      both; writes [BENCH_skew.json]. At the column level a counter cell
      is an LWW register, so the commits it counts include increments
      that a later write discards (ROADMAP.md item 9 measured 82.2% of
      them lost on the hot-only profile);
    - [fig_fastpath]: eocc p50/p95 and mispredict rate across clock-skew
      bounds 0–50 ms against GeoGauss (DESIGN.md §14); warns on stderr
      unless eocc's p50 wins at bounds <= 10 ms; writes
      [BENCH_fastpath.json]. *)

val run : ?fast:bool -> ?pool:Gg_par.Pool.t -> string -> bool
(** [run name] prints experiment [name]'s tables to stdout, with the
    {!setting} for [fast] (default false); false, printing nothing, if
    [name] is not in {!names}. *)
