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

let () =
  Alcotest.run "gg_harness"
    [
      ( "driver",
        [
          Alcotest.test_case "engine driver measures" `Slow test_run_engine_measures;
          Alcotest.test_case "geogauss driver measures" `Slow test_run_geogauss_measures;
          Alcotest.test_case "geogauss > crdb on YCSB-MC" `Slow test_geogauss_beats_crdb_ycsb_mc;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "registry" `Quick test_experiment_registry;
          Alcotest.test_case "unknown name is a real error" `Quick
            test_experiment_unknown_name_error;
          Alcotest.test_case "table3 fast" `Slow test_experiment_table3_fast;
        ] );
    ]
