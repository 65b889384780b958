(** Seeded chaos scenarios.

    A scenario is plain data: every knob of one randomized cluster run —
    engine variant, isolation, fault-tolerance mode, workload, epoch
    length, network fault rates, and a timestamped fault schedule
    ({!Gg_sim.Fault}). {!generate} derives it deterministically from a
    single integer seed, so any failure reproduces from its seed alone,
    and the shrinker ({!Shrink}) can mutate the record field-wise. *)

type workload = Ycsb_mc | Ycsb_hc | Tpcc | Hotkey | Social | Scan | Secidx

type t = {
  seed : int;
  nodes : int;
  workload : workload;
  variant : Geogauss.Params.variant;
  isolation : Geogauss.Params.isolation;
  ft : Geogauss.Params.ft_mode;
  epoch_ms : int;
  duration_ms : int;
  connections : int;  (** closed-loop connections per node *)
  loss : float;  (** baseline network fault rates... *)
  dup : float;
  reorder : float;
  jitter : float;
  faults : Gg_sim.Fault.event list;  (** ...plus the scheduled faults *)
  corruption : (int * int) option;
      (** [(node, at_ms)]: deliberately corrupt one row on one replica —
          the self-test canary proving the oracles can detect divergence *)
  corrupt_frac : float;
      (** probability each binary batch frame is truncated in flight
          (the decode failure routes to the batch-loss repair path).
          Pinned, never drawn: at [0.0] the network takes no corruption
          coin-flips, so existing seeds replay unchanged. *)
  merge_level : Geogauss.Params.merge_level;
      (** conflict granularity of the epoch merge (DESIGN.md §13).
          Never drawn from the seed — pinned through
          {!with_merge_level}, so one seed runs the same scenario at
          either granularity and the sweeps compare cleanly. *)
  fastpath : bool;
      (** clock-assisted speculative sealing (the [eocc] engine,
          DESIGN.md §14). Never drawn from the seed — pinned through {!with_fastpath}, so existing reproducer lines
          replay unchanged. *)
  clock_skew_ms : int;
      (** bounded clock-skew budget for fastpath runs ([0] = perfectly
          synchronized clocks). Pinned alongside [fastpath]. *)
}

val generate :
  ?variant:Geogauss.Params.variant ->
  ?isolation:Geogauss.Params.isolation ->
  ?ft:Geogauss.Params.ft_mode ->
  fast:bool ->
  int ->
  t
(** [generate ~fast seed] draws a scenario from the seed; the optional
    arguments pin a dimension instead of drawing it. [fast] bounds the
    run length for test-suite use. GeoG-A ([Async_merge]) scenarios are
    automatically restricted to the faults eventual consistency
    tolerates (no loss, no crashes). *)

val with_fastpath : t -> clock_skew_ms:int -> t
(** Pin the clock-assisted fast path ([eocc]) onto a drawn scenario,
    with the given skew budget. Coerces the variant to the full engine
    (the fast path refines Optimistic) and appends a deterministic
    skew-burst fault schedule — {!Gg_sim.Fault.Skew_step} events drawn
    from a fresh Rng salted independently of {!generate}'s stream, so
    the seed's own draws are untouched. At [clock_skew_ms = 0] no
    bursts are added (there is no skew budget to step within). *)

val with_merge_level : t -> Geogauss.Params.merge_level -> t
(** Pin the epoch merge's conflict granularity (identity for [Row]).
    Coerces GeoG-A to the full engine — gossip re-applies whole row
    images, so it has no column kernel to exercise. All seed-drawn
    knobs are otherwise untouched. *)

val params : t -> Geogauss.Params.t
(** The cluster parameter block this scenario runs under. *)

val to_string : t -> string
(** One-line reproducer form; includes every generated knob. *)

val workload_to_string : workload -> string
