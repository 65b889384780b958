(* Smoke tests of the benchmark harness: drivers measure, experiments
   execute in fast mode, and key cross-system shapes hold. *)

module Topology = Gg_sim.Topology
module Ycsb = Gg_workload.Ycsb

let small_profile = Ycsb.with_records Ycsb.medium_contention 2_000

let test_run_engine_measures () =
  let r =
    Gg_harness.Driver.run_engine
      (module Gg_engines.Calvin)
      ~topology:(Topology.china3 ())
      ~gen:(Gg_harness.Driver.ycsb_gens small_profile ~seed:1)
      ~connections:8 ~warmup_ms:200 ~measure_ms:600 ~label:"calvin" ()
  in
  Alcotest.(check bool) "committed > 0" true (r.Gg_harness.Result.committed > 0);
  Alcotest.(check bool) "tput > 0" true (r.Gg_harness.Result.tput > 0.0);
  Alcotest.(check bool) "latency sane" true
    (r.Gg_harness.Result.mean_ms > 10.0 && r.Gg_harness.Result.mean_ms < 500.0)

let test_run_geogauss_measures () =
  let r, extra =
    Gg_harness.Driver.run_geogauss ~connections:8
      ~topology:(Topology.china3 ())
      ~load:(Ycsb.load small_profile)
      ~gen:(Gg_harness.Driver.ycsb_gens small_profile ~seed:2)
      ~warmup_ms:300 ~measure_ms:800 ~label:"geogauss" ()
  in
  Alcotest.(check bool) "committed > 0" true (r.Gg_harness.Result.committed > 0);
  Alcotest.(check int) "phase means per node" 3
    (List.length extra.Gg_harness.Driver.phase_means);
  Alcotest.(check bool) "epoch cells recorded" true
    (List.length extra.Gg_harness.Driver.epoch_cells > 10)

let test_geogauss_beats_crdb_ycsb_mc () =
  (* The headline Fig 5 shape. *)
  let gen = Gg_harness.Driver.ycsb_gens small_profile ~seed:3 in
  let geo, _ =
    Gg_harness.Driver.run_geogauss ~connections:16
      ~topology:(Topology.china3 ())
      ~load:(Ycsb.load small_profile) ~gen ~warmup_ms:300 ~measure_ms:1_000
      ~label:"geogauss" ()
  in
  let crdb =
    Gg_harness.Driver.run_engine
      (module Gg_engines.Crdb)
      ~topology:(Topology.china3 ()) ~gen ~connections:16 ~warmup_ms:300
      ~measure_ms:1_000 ~label:"crdb" ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "geogauss tput %.0f > crdb %.0f" geo.Gg_harness.Result.tput
       crdb.Gg_harness.Result.tput)
    true
    (geo.Gg_harness.Result.tput > crdb.Gg_harness.Result.tput);
  Alcotest.(check bool)
    (Printf.sprintf "geogauss lat %.1f < crdb %.1f" geo.Gg_harness.Result.mean_ms
       crdb.Gg_harness.Result.mean_ms)
    true
    (geo.Gg_harness.Result.mean_ms < crdb.Gg_harness.Result.mean_ms)

let test_experiment_registry () =
  let names = Gg_harness.Experiments.names in
  Alcotest.(check int) "14 experiments" 14 (List.length names);
  Alcotest.(check int) "no name twice" 14
    (List.length (List.sort_uniq compare names));
  Alcotest.(check (list string)) "paper order first"
    [ "fig5"; "table2"; "fig6"; "fig7"; "table3"; "fig8"; "fig9"; "fig10";
      "fig11"; "fig12"; "fig13" ]
    (List.filteri (fun i _ -> i < 11) names);
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " registered") true (List.mem n names))
    [ "ablations"; "fig_skew"; "fig_fastpath" ]

let test_experiment_unknown_name_error () =
  (* An unknown name runs nothing and says so; the bench runner turns
     that into exit 1 with the list of names. *)
  let setting = Gg_harness.Experiments.setting ~fast:true in
  Alcotest.(check bool) "no tables for an unknown name" true
    (Gg_harness.Experiments.tables ~setting ~fast:true "fig99" = None);
  Alcotest.(check bool) "run rejects it" false
    (Gg_harness.Experiments.run ~fast:true "fig99")

let test_experiment_table3_fast () =
  (* Runs a real (fast) experiment end to end. *)
  Alcotest.(check bool) "table3 runs" true
    (Gg_harness.Experiments.run ~fast:true "table3")

(* --- open-loop clients --- *)

module Arrival = Gg_workload.Arrival

let run_open ~arrival ~connections ~measure_ms () =
  Gg_harness.Driver.run_geogauss ~arrival ~connections
    ~topology:(Topology.china3 ())
    ~load:(Ycsb.load small_profile)
    ~gen:(Gg_harness.Driver.ycsb_gens small_profile ~seed:17)
    ~warmup_ms:400 ~measure_ms ~label:"open" ()

let test_open_loop_measures () =
  (* A modest offered load the cluster can absorb: nothing sheds, and
     latency stays in the closed-loop ballpark (no standing queue). *)
  let arrival = Arrival.make ~shape:Arrival.Constant ~peak_tps:120.0 in
  let r, extra = run_open ~arrival ~connections:32 ~measure_ms:1_000 () in
  Alcotest.(check bool) "committed > 0" true (r.Gg_harness.Result.committed > 0);
  Alcotest.(check bool) "offered > 0" true (extra.Gg_harness.Driver.offered > 0);
  Alcotest.(check int) "nothing shed" 0 extra.Gg_harness.Driver.shed;
  (* the curve is per region: 3 x 120 tps offered for 1 s *)
  Alcotest.(check bool)
    (Printf.sprintf "offered %d near the curve" extra.Gg_harness.Driver.offered)
    true
    (extra.Gg_harness.Driver.offered > 240 && extra.Gg_harness.Driver.offered < 480);
  Alcotest.(check bool) "latency sane" true
    (r.Gg_harness.Result.mean_ms > 10.0 && r.Gg_harness.Result.mean_ms < 500.0)

let test_open_loop_overload_regression () =
  (* Offered load far beyond service rate: the bounded queue must shed
     rather than grow without bound, commits must keep flowing at the
     service rate, and measured latency — which starts at ARRIVAL, so
     queue wait counts — must stay bounded by the queue depth, not climb
     with the length of the run. *)
  let arrival = Arrival.make ~shape:Arrival.Constant ~peak_tps:4_000.0 in
  let r, extra = run_open ~arrival ~connections:4 ~measure_ms:1_200 () in
  Alcotest.(check bool) "commits keep flowing" true
    (r.Gg_harness.Result.committed > 0);
  Alcotest.(check bool)
    (Printf.sprintf "overload sheds (%d)" extra.Gg_harness.Driver.shed)
    true
    (extra.Gg_harness.Driver.shed > 0);
  Alcotest.(check bool) "offered >> committed" true
    (extra.Gg_harness.Driver.offered > 4 * r.Gg_harness.Result.committed);
  (* 4 in flight + 16 queued, ~200 ms China RTT per txn: worst-case
     sojourn is a few seconds. Unbounded-queue accounting would blow
     past this. *)
  Alcotest.(check bool)
    (Printf.sprintf "p95 %.0f ms bounded by queue depth" r.Gg_harness.Result.p95_ms)
    true
    (r.Gg_harness.Result.p95_ms > 0.0 && r.Gg_harness.Result.p95_ms < 5_000.0)

let test_open_loop_deterministic () =
  let arrival =
    Arrival.make
      ~shape:(Arrival.Flash { at_ms = 300; dur_ms = 300; mult = 5.0 })
      ~peak_tps:1_500.0
  in
  let once () =
    let r, extra = run_open ~arrival ~connections:8 ~measure_ms:900 () in
    ( r.Gg_harness.Result.committed,
      r.Gg_harness.Result.aborted,
      extra.Gg_harness.Driver.offered,
      extra.Gg_harness.Driver.shed,
      Gg_harness.Result.row r )
  in
  let a = once () and b = once () in
  Alcotest.(check bool) "two identical runs, identical numbers" true (a = b)

let () =
  Alcotest.run "gg_harness"
    [
      ( "driver",
        [
          Alcotest.test_case "engine driver measures" `Slow test_run_engine_measures;
          Alcotest.test_case "geogauss driver measures" `Slow test_run_geogauss_measures;
          Alcotest.test_case "geogauss > crdb on YCSB-MC" `Slow test_geogauss_beats_crdb_ycsb_mc;
          Alcotest.test_case "open loop measures" `Slow test_open_loop_measures;
          Alcotest.test_case "open loop overload regression" `Slow
            test_open_loop_overload_regression;
          Alcotest.test_case "open loop deterministic" `Slow
            test_open_loop_deterministic;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "registry" `Quick test_experiment_registry;
          Alcotest.test_case "unknown name is a real error" `Quick
            test_experiment_unknown_name_error;
          Alcotest.test_case "table3 fast" `Slow test_experiment_table3_fast;
        ] );
    ]
