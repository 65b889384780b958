(* Tests for the bounded-skew clock model and the clock-assisted epoch
   fast path built on it (DESIGN.md §14): seeded offsets are
   deterministic and never exceed the configured bound (the invariant
   the speculative sealer's fallback correctness argument rests on),
   the per-sender watermark is monotone, the eocc chaos sweep holds all
   five oracles, and a deliberately broken watermark margin is caught
   by the misprediction counter — not by a consistency violation. *)

module Clock = Gg_sim.Clock
module Topology = Gg_sim.Topology
module Scenario = Gg_check.Scenario
module Checker = Gg_check.Checker
module Params = Geogauss.Params

let topo = Topology.china3 ()
let n_nodes = Topology.n_nodes topo

(* --- seeded offsets: determinism + bound --- *)

let sample_times = [ 0; 1; 999; 50_000; 1_000_000; 7_777_777; 60_000_000 ]

let prop_offsets_deterministic =
  QCheck.Test.make ~name:"same seed, same offsets" ~count:50
    QCheck.(pair (int_bound 10_000) (int_bound 50_000))
    (fun (seed, bound_us) ->
      let a = Clock.create ~seed ~topology:topo ~bound_us in
      let b = Clock.create ~seed ~topology:topo ~bound_us in
      List.for_all
        (fun at ->
          List.for_all
            (fun node ->
              Clock.offset_us a ~node ~at = Clock.offset_us b ~node ~at)
            (List.init n_nodes Fun.id))
        sample_times)

let prop_offsets_within_bound =
  QCheck.Test.make ~name:"offsets clamped to the skew bound" ~count:100
    QCheck.(pair (int_bound 10_000) (int_bound 50_000))
    (fun (seed, bound_us) ->
      let c = Clock.create ~seed ~topology:topo ~bound_us in
      List.for_all
        (fun at ->
          List.for_all
            (fun node ->
              let o = Clock.offset_us c ~node ~at in
              abs o <= bound_us
              && Clock.read c ~node ~at = at + o)
            (List.init n_nodes Fun.id))
        sample_times)

let prop_bound_survives_skew_steps =
  (* Injected skew bursts shift the offset but the clamp is an
     invariant: whatever steps a fault schedule lands, no read ever
     strays past the bound. *)
  QCheck.Test.make ~name:"bound survives injected skew steps" ~count:100
    QCheck.(
      triple (int_bound 10_000) (int_bound 50_000)
        (list_of_size (QCheck.Gen.int_range 1 6)
           (pair (int_bound 1_000) (int_range (-200_000) 200_000))))
    (fun (seed, bound_us, steps) ->
      let c = Clock.create ~seed ~topology:topo ~bound_us in
      List.for_all
        (fun (node_raw, delta_us) ->
          let node = node_raw mod n_nodes in
          Clock.inject_step c ~node ~delta_us;
          List.for_all
            (fun at -> abs (Clock.offset_us c ~node ~at) <= bound_us)
            sample_times)
        steps)

(* --- per-sender watermark --- *)

let prop_watermark_monotone =
  (* Whatever order stamps arrive in — including stale re-deliveries —
     the high-water mark only moves forward. *)
  QCheck.Test.make ~name:"watermark monotone per sender" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 40) (int_bound 5_000_000))
    (fun stamps ->
      let c = Clock.create ~seed:7 ~topology:topo ~bound_us:5_000 in
      let running_max = ref min_int in
      List.for_all
        (fun stamp ->
          running_max := max !running_max stamp;
          Clock.note_stamp c ~src:1 ~dst:0 ~stamp ~at:(stamp + 30_000);
          match Clock.hwm c ~src:1 ~dst:0 with
          | None -> false
          | Some (s, _) -> s = !running_max)
        stamps)

let test_deadline_monotone_in_margin () =
  let c = Clock.create ~seed:3 ~topology:topo ~bound_us:5_000 in
  (* no hwm yet: worst-case prediction *)
  let d0 = Clock.deadline c ~src:1 ~dst:0 ~boundary_us:100_000 ~margin_us:0 in
  let d1 =
    Clock.deadline c ~src:1 ~dst:0 ~boundary_us:100_000 ~margin_us:2_000
  in
  Alcotest.(check bool) "margin pushes the deadline out" true (d1 = d0 + 2_000);
  (* with a hwm the sender-clock terms cancel: feeding a later stamp
     from the same sender never moves the prediction backwards *)
  Clock.note_stamp c ~src:1 ~dst:0 ~stamp:40_000 ~at:70_000;
  let da = Clock.deadline c ~src:1 ~dst:0 ~boundary_us:100_000 ~margin_us:0 in
  Clock.note_stamp c ~src:1 ~dst:0 ~stamp:60_000 ~at:90_000;
  let db = Clock.deadline c ~src:1 ~dst:0 ~boundary_us:100_000 ~margin_us:0 in
  Alcotest.(check bool) "hwm deadline well-formed" true (da > 0 && db > 0);
  Alcotest.(check bool) "deadline deterministic" true
    (db = Clock.deadline c ~src:1 ~dst:0 ~boundary_us:100_000 ~margin_us:0)

(* --- eocc chaos sweep: the five oracles at full strength --- *)

let test_eocc_seeds_pass () =
  (* 50 fast seeds with speculative sealing pinned on and a 10 ms skew
     budget (plus each scenario's deterministic skew-burst schedule):
     externalization gates on the confirm point, so every oracle must
     hold exactly as it does for the classic engine. *)
  Gg_par.Pool.with_pool ~jobs:0 (fun pool ->
      let report =
        Checker.check ~fast:true ~fastpath:true ~clock_skew_ms:10 ~pool
          ~base:0 ~seeds:50 ()
      in
      Alcotest.(check int) "seeds run" 50 report.Checker.seeds_run;
      Alcotest.(check int) "no violations" 0
        (List.length report.Checker.failures);
      Alcotest.(check bool) "commits happened" true
        (report.Checker.total_commits > 0))

let test_eocc_sweep_pool_parity () =
  (* The eocc sweep streams results in seed order, so the log is
     byte-identical at any pool width. *)
  let capture pool =
    let buf = Buffer.create 256 in
    let r =
      Checker.check
        ~log:(fun l ->
          Buffer.add_string buf l;
          Buffer.add_char buf '\n')
        ~fast:true ~fastpath:true ~clock_skew_ms:10 ~pool ~base:0 ~seeds:3 ()
    in
    (Buffer.contents buf, r)
  in
  let log1, r1 = capture Gg_par.Pool.seq in
  let log4, r4 =
    Gg_par.Pool.with_pool ~jobs:4 (fun pool -> capture pool)
  in
  Alcotest.(check string) "logs byte-identical at -j1 vs -j4" log1 log4;
  Alcotest.(check int) "same commits" r1.Checker.total_commits
    r4.Checker.total_commits;
  Alcotest.(check int) "same failures" (List.length r1.Checker.failures)
    (List.length r4.Checker.failures)

let test_fastpath_scenarios_pinned () =
  (* with_fastpath pins the knobs without redrawing the seed stream:
     the underlying scenario fields are untouched, only the pins and
     the appended skew-burst faults differ. *)
  for seed = 0 to 10 do
    let base = Scenario.generate ~fast:true seed in
    let s = Scenario.with_fastpath base ~clock_skew_ms:10 in
    Alcotest.(check bool) "fastpath pinned" true s.Scenario.fastpath;
    Alcotest.(check int) "skew budget pinned" 10 s.Scenario.clock_skew_ms;
    Alcotest.(check bool) "variant coerced to full engine" true
      (s.Scenario.variant = Params.Optimistic);
    Alcotest.(check int) "same workload draw" base.Scenario.seed s.Scenario.seed;
    Alcotest.(check int) "same node draw" base.Scenario.nodes s.Scenario.nodes;
    (* pinning twice is stable — the skew schedule is salted by seed,
       not drawn from ambient state *)
    let s' = Scenario.with_fastpath base ~clock_skew_ms:10 in
    Alcotest.(check string) "pin is a pure function of the seed"
      (Scenario.to_string s) (Scenario.to_string s')
  done

(* --- broken-watermark canary --- *)

let fastpath_run params =
  let profile =
    Gg_workload.Ycsb.with_records Gg_workload.Ycsb.medium_contention 2_000
  in
  Gg_harness.Driver.run_geogauss ~params ~connections:8
    ~topology:(Topology.china3 ())
    ~load:(Gg_workload.Ycsb.load profile)
    ~gen:(Gg_harness.Driver.ycsb_gens profile ~seed:11)
    ~warmup_ms:200 ~measure_ms:600 ~label:"clock-test" ()

let test_broken_watermark_canary () =
  (* A deliberately broken margin (speculate a full second early, long
     before remote write sets can have arrived) must be caught by the
     misprediction fallback: the counter fires, yet the run still
     commits — proving mispredicts cost wasted simulated work, never
     correctness. A healthy margin on the same workload confirms. *)
  let healthy = Params.with_fastpath Params.default true in
  let broken = { healthy with Params.fastpath_margin_us = -1_000_000 } in
  let r_h, x_h = fastpath_run healthy in
  let spec_h, confirms_h, _ = x_h.Gg_harness.Driver.fastpath in
  Alcotest.(check bool) "healthy run commits" true
    (r_h.Gg_harness.Result.committed > 0);
  Alcotest.(check bool) "healthy run speculates" true (spec_h > 0);
  Alcotest.(check bool) "healthy run confirms" true (confirms_h > 0);
  let r_b, x_b = fastpath_run broken in
  let spec_b, _, mispredicts_b = x_b.Gg_harness.Driver.fastpath in
  Alcotest.(check bool) "broken run still commits" true
    (r_b.Gg_harness.Result.committed > 0);
  Alcotest.(check bool) "broken run speculates" true (spec_b > 0);
  Alcotest.(check bool) "broken watermark detected as mispredictions" true
    (mispredicts_b > 0)

let () =
  Alcotest.run "gg_clock"
    [
      ( "offsets",
        [
          QCheck_alcotest.to_alcotest prop_offsets_deterministic;
          QCheck_alcotest.to_alcotest prop_offsets_within_bound;
          QCheck_alcotest.to_alcotest prop_bound_survives_skew_steps;
        ] );
      ( "watermark",
        [
          QCheck_alcotest.to_alcotest prop_watermark_monotone;
          Alcotest.test_case "deadline margin + determinism" `Quick
            test_deadline_monotone_in_margin;
        ] );
      ( "eocc",
        [
          Alcotest.test_case "50 fast seeds, five oracles" `Slow
            test_eocc_seeds_pass;
          Alcotest.test_case "byte-identical log across pool -j" `Slow
            test_eocc_sweep_pool_parity;
          Alcotest.test_case "with_fastpath pins, no redraw" `Quick
            test_fastpath_scenarios_pinned;
          Alcotest.test_case "broken watermark canary" `Slow
            test_broken_watermark_canary;
        ] );
    ]
