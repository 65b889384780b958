(* Tests for the chaos checker itself: scenario generation is a pure
   function of the seed, clean seeded runs pass every invariant oracle,
   and a deliberately corrupted replica is caught and shrunk to a
   one-line reproducer (the canary proving the oracles have teeth). *)

module Scenario = Gg_check.Scenario
module Oracle = Gg_check.Oracle
module Checker = Gg_check.Checker
module Params = Geogauss.Params

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* --- scenario generation --- *)

let test_generate_deterministic () =
  for seed = 0 to 20 do
    let a = Scenario.generate ~fast:true seed in
    let b = Scenario.generate ~fast:true seed in
    Alcotest.(check string) "same seed, same scenario" (Scenario.to_string a)
      (Scenario.to_string b)
  done

let test_generate_explores_space () =
  let lines =
    List.init 25 (fun s -> Scenario.to_string (Scenario.generate ~fast:true s))
  in
  Alcotest.(check int) "all distinct" 25
    (List.length (List.sort_uniq compare lines))

let test_generate_pins_respected () =
  for seed = 0 to 10 do
    let s =
      Scenario.generate ~variant:Params.Sync_exec ~isolation:Params.SI
        ~ft:Params.Ft_raft ~fast:true seed
    in
    Alcotest.(check bool) "variant pinned" true
      (s.Scenario.variant = Params.Sync_exec);
    Alcotest.(check bool) "isolation pinned" true
      (s.Scenario.isolation = Params.SI);
    Alcotest.(check bool) "ft pinned" true (s.Scenario.ft = Params.Ft_raft)
  done

let test_async_scenarios_restricted () =
  (* GeoG-A offers eventual consistency only; the generator must not
     hand it faults it makes no guarantees about. *)
  for seed = 0 to 30 do
    let s = Scenario.generate ~variant:Params.Async_merge ~fast:true seed in
    Alcotest.(check (float 0.0)) "no loss" 0.0 s.Scenario.loss;
    Alcotest.(check bool) "no scheduled faults" true (s.Scenario.faults = []);
    Alcotest.(check bool) "no ft machinery" true (s.Scenario.ft = Params.Ft_none)
  done

(* --- clean runs --- *)

let test_smoke_seeds_pass () =
  let report = Checker.check ~fast:true ~base:0 ~seeds:2 () in
  Alcotest.(check int) "seeds run" 2 report.Checker.seeds_run;
  Alcotest.(check int) "no violations" 0 (List.length report.Checker.failures);
  Alcotest.(check bool) "commits happened" true (report.Checker.total_commits > 0)

let test_run_deterministic () =
  let s = Scenario.generate ~fast:true 3 in
  let o1 = Checker.run s and o2 = Checker.run s in
  Alcotest.(check int) "commits equal" o1.Checker.commits o2.Checker.commits;
  Alcotest.(check int) "aborts equal" o1.Checker.aborts o2.Checker.aborts;
  Alcotest.(check (list int)) "final lsns equal" o1.Checker.lsns o2.Checker.lsns;
  Alcotest.(check int) "oracle commit logs equal" o1.Checker.oracle_commits
    o2.Checker.oracle_commits

(* --- column-level merge (DESIGN.md §13) --- *)

let test_workload_space_covers_new_generators () =
  (* The seeded generator must actually draw the new workload shapes
     somewhere in a modest seed range, or the chaos sweep never
     exercises them. *)
  let seen = Hashtbl.create 8 in
  for seed = 0 to 99 do
    let s = Scenario.generate ~fast:true seed in
    Hashtbl.replace seen s.Scenario.workload ()
  done;
  List.iter
    (fun w ->
      Alcotest.(check bool)
        (Scenario.workload_to_string w ^ " drawn")
        true (Hashtbl.mem seen w))
    [
      Scenario.Ycsb_mc; Scenario.Ycsb_hc; Scenario.Tpcc; Scenario.Hotkey;
      Scenario.Social; Scenario.Scan; Scenario.Secidx;
    ]

let test_with_merge_level_pin () =
  for seed = 0 to 20 do
    let s = Scenario.generate ~fast:true seed in
    let s' = Scenario.with_merge_level s Params.Column in
    Alcotest.(check bool) "level pinned" true
      (s'.Scenario.merge_level = Params.Column);
    Alcotest.(check bool) "engine is epoch-based" true
      (s'.Scenario.variant <> Params.Async_merge);
    (* The pin must be the identity at the default level. *)
    Alcotest.(check string) "Row is the identity" (Scenario.to_string s)
      (Scenario.to_string (Scenario.with_merge_level s Params.Row))
  done

let test_column_seeds_pass () =
  (* The same drawn seeds, re-run with the column lattice active, must
     hold all five oracles. *)
  let report =
    Checker.check ~fast:true ~merge_level:Params.Column ~base:0 ~seeds:3 ()
  in
  Alcotest.(check int) "no violations at column level" 0
    (List.length report.Checker.failures);
  Alcotest.(check bool) "commits happened" true
    (report.Checker.total_commits > 0)

(* --- corrupted batch frames --- *)

let test_corrupt_batches_recovered () =
  (* Truncated batch frames must be dropped at decode and recovered by
     the stall-repair path: same oracles, no violations, and the run
     still commits. *)
  let report =
    Checker.check ~fast:true ~corrupt_frac:0.05 ~base:0 ~seeds:3 ()
  in
  Alcotest.(check int) "no violations with corrupt frames" 0
    (List.length report.Checker.failures);
  Alcotest.(check bool) "commits happened" true
    (report.Checker.total_commits > 0)

(* --- the corruption canary --- *)

let canary_scenario () =
  {
    (Scenario.generate ~variant:Params.Optimistic ~fast:true 0) with
    Scenario.faults = [];
    corruption = Some (1, 400);
  }

let test_canary_detected_and_shrunk () =
  let s = canary_scenario () in
  let o = Checker.run s in
  match o.Checker.violation with
  | None -> Alcotest.fail "silent replica corruption must be detected"
  | Some v ->
    Alcotest.(check bool) "caught by the convergence oracle" true
      (v.Oracle.invariant = Oracle.Convergence);
    let f = Checker.shrink_and_report s v in
    Alcotest.(check bool) "shrinker made progress" true
      (f.Checker.shrink_runs > 0);
    Alcotest.(check bool) "minimized run no longer than original" true
      (f.Checker.minimized.Scenario.duration_ms <= s.Scenario.duration_ms);
    let line = Checker.reproducer f.Checker.minimized f.Checker.min_violation in
    Alcotest.(check bool) "reproducer names the corruption" true
      (contains ~sub:"corrupt=1@400ms" line);
    Alcotest.(check bool) "reproducer names the invariant" true
      (contains ~sub:"invariant=convergence" line);
    (* The reproducer line must actually reproduce. *)
    (match (Checker.run f.Checker.minimized).Checker.violation with
    | Some v' ->
      Alcotest.(check bool) "minimized scenario still fails" true
        (v'.Oracle.invariant = Oracle.Convergence)
    | None -> Alcotest.fail "minimized scenario must still fail")

let () =
  Alcotest.run "gg_check"
    [
      ( "scenario",
        [
          Alcotest.test_case "generation deterministic" `Quick test_generate_deterministic;
          Alcotest.test_case "seeds explore the space" `Quick test_generate_explores_space;
          Alcotest.test_case "dimension pins respected" `Quick test_generate_pins_respected;
          Alcotest.test_case "GeoG-A restricted" `Quick test_async_scenarios_restricted;
        ] );
      ( "runs",
        [
          Alcotest.test_case "smoke seeds pass" `Slow test_smoke_seeds_pass;
          Alcotest.test_case "run deterministic" `Slow test_run_deterministic;
        ] );
      ( "column merge",
        [
          Alcotest.test_case "generator draws new workloads and arrivals" `Quick
            test_workload_space_covers_new_generators;
          Alcotest.test_case "merge-level pin respected" `Quick
            test_with_merge_level_pin;
          Alcotest.test_case "column-level seeds pass" `Slow
            test_column_seeds_pass;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "corrupt frames recovered" `Slow
            test_corrupt_batches_recovered;
        ] );
      ( "canary",
        [
          Alcotest.test_case "corruption detected and shrunk" `Slow test_canary_detected_and_shrunk;
        ] );
    ]
