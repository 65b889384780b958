(* Tests for the bounded-skew clock model and the clock-assisted epoch
   fast path built on it (DESIGN.md §14): seeded offsets are
   deterministic and never exceed the configured bound (the invariant
   the speculative sealer's fallback correctness argument rests on),
   the per-sender watermark is monotone, the eocc chaos sweep holds all
   five oracles, the {!Geogauss.Fastpath} stage arms, confirms and
   falls back as specified, and a real run's mispredictions cost
   wasted simulated work — not commits. *)

module Clock = Gg_sim.Clock
module Topology = Gg_sim.Topology
module Scenario = Gg_check.Scenario
module Checker = Gg_check.Checker
module Params = Geogauss.Params
module Fastpath = Geogauss.Fastpath

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

(* --- the Fastpath stage --- *)

let fastpath_params = Params.with_fastpath Params.default true

let make_stage ?(params = fastpath_params) () =
  let bound_us = params.Params.clock_skew_us in
  Fastpath.create params
    ~clock:(Clock.create ~seed:1 ~topology:topo ~bound_us)
    ~obs:(Gg_obs.Obs.create ()) ~metrics:(Geogauss.Metrics.create ~obs:(Gg_obs.Obs.create ()) ~id:0) ~node:0

let stage () =
  match make_stage () with
  | Some f -> f
  | None -> Alcotest.fail "fast path on: stage expected"

let test_stage_installed_only_when_it_runs () =
  Alcotest.(check bool) "fast path off: no stage" true
    (Option.is_none (make_stage ~params:Params.default ()));
  Alcotest.(check bool) "fast path on: stage" true
    (Option.is_some (make_stage ()))

let test_settle_identical_keys_confirms () =
  List.iter
    (fun now ->
      let f = stage () in
      Fastpath.arm f ~e:5 ~now:1_000 ~duration:500 ~n_records:3
        ~keys:[ 1; 2; 3 ];
      match Fastpath.settle f ~e:5 ~now ~keys:[ 1; 2; 3 ] with
      | Fastpath.Confirmed { start; duration; prelog; _ } ->
        let residual = start + duration - now in
        Alcotest.(check int) "charged duration" 500 duration;
        Alcotest.(check int) "residual of the charge"
          (max 0 (1_000 + 500 - now)) residual;
        Alcotest.(check bool) "residual non-negative" true (residual >= 0);
        Alcotest.(check int) "prelog instant is the arm instant" 1_000 prelog;
        Alcotest.(check bool) "disarmed" true
          (Fastpath.settle f ~e:5 ~now ~keys:[ 1; 2; 3 ] = Fastpath.Not_armed)
      | _ -> Alcotest.fail "identical keys must confirm")
    [ 1_200 (* charge still running *); 4_000 (* charge long done *) ]

let test_straggler_mispredicts () =
  let f = stage () in
  Fastpath.arm f ~e:5 ~now:1_000 ~duration:500 ~n_records:2 ~keys:[ 1; 2 ];
  Alcotest.(check bool) "straggler mispredicts, prelog kept" true
    (Fastpath.settle f ~e:5 ~now:1_300 ~keys:[ 1; 2; 3 ]
    = Fastpath.Mispredicted { prelog = 1_000 })

let test_not_armed_and_reset () =
  let f = stage () in
  Alcotest.(check bool) "unarmed epoch" true
    (Fastpath.settle f ~e:3 ~now:0 ~keys:[] = Fastpath.Not_armed);
  Fastpath.arm f ~e:3 ~now:0 ~duration:100 ~n_records:0 ~keys:[];
  Alcotest.(check bool) "another epoch is not armed" true
    (Fastpath.settle f ~e:4 ~now:0 ~keys:[] = Fastpath.Not_armed);
  Alcotest.(check bool) "an armed epoch re-plans to nothing" true
    (Fastpath.plan f ~e:3 ~now:0 ~incomplete:[ 1 ] = Fastpath.Nothing);
  Fastpath.reset f;
  Alcotest.(check bool) "reset disarms" true
    (Fastpath.settle f ~e:3 ~now:0 ~keys:[] = Fastpath.Not_armed)

let test_one_timer_per_deadline () =
  let f = stage () in
  let wake e =
    match Fastpath.plan f ~e ~now:0 ~incomplete:[ 1; 2 ] with
    | Fastpath.Wake_at at -> Some at
    | _ -> None
  in
  Alcotest.(check bool) "complete epoch: nothing to do" true
    (Fastpath.plan f ~e:10 ~now:0 ~incomplete:[] = Fastpath.Nothing);
  let at = Option.get (wake 10) in
  Alcotest.(check bool) "same deadline: no second timer" true (wake 10 = None);
  Alcotest.(check bool) "later deadline: no second timer" true (wake 20 = None);
  let earlier = Option.get (wake 5) in
  Alcotest.(check bool) "an earlier deadline gets its own timer" true
    (earlier < at);
  Fastpath.woke f ~at;
  Alcotest.(check bool) "a stale wakeup keeps the pending one" true
    (wake 10 = None);
  Fastpath.woke f ~at:earlier;
  Alcotest.(check bool) "after the wakeup fires, a timer is armed again" true
    (wake 10 = Some at);
  Alcotest.(check bool) "every peer past its deadline: speculate" true
    (Fastpath.plan f ~e:10 ~now:max_int ~incomplete:[ 1; 2 ]
    = Fastpath.Speculate)

(* --- whole runs --- *)

let fastpath_run params =
  let profile =
    Gg_workload.Ycsb.with_records Gg_workload.Ycsb.medium_contention 2_000
  in
  Gg_harness.Driver.run_geogauss ~params ~connections:8
    ~topology:(Topology.china3 ())
    ~load:(Gg_workload.Ycsb.load profile)
    ~gen:(Gg_harness.Driver.ycsb_gens profile ~seed:11)
    ~warmup_ms:200 ~measure_ms:600 ~label:"clock-test" ()

let test_mispredicts_still_commit () =
  (* The run speculates and confirms, and some predictions break: the
     misprediction fallback re-merges those epochs on the actual set,
     and the run still commits — mispredicts cost wasted simulated work,
     never correctness. *)
  let r, x = fastpath_run fastpath_params in
  let spec, confirms, mispredicts = x.Gg_harness.Driver.fastpath in
  Alcotest.(check bool) "run commits" true (r.Gg_harness.Result.committed > 0);
  Alcotest.(check bool) "run speculates" true (spec > 0);
  Alcotest.(check bool) "run confirms" true (confirms > 0);
  Alcotest.(check bool) "mispredictions detected" true (mispredicts > 0)

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
          Alcotest.test_case "mispredicts still commit" `Slow
            test_mispredicts_still_commit;
        ] );
      ( "fastpath stage",
        [
          Alcotest.test_case "installed only when it runs" `Quick
            test_stage_installed_only_when_it_runs;
          Alcotest.test_case "identical keys confirm" `Quick
            test_settle_identical_keys_confirms;
          Alcotest.test_case "straggler mispredicts" `Quick
            test_straggler_mispredicts;
          Alcotest.test_case "not armed, and reset" `Quick
            test_not_armed_and_reset;
          Alcotest.test_case "one timer per deadline" `Quick
            test_one_timer_per_deadline;
        ] );
    ]
