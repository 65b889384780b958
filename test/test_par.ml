(* The Domain-pool runner: ordering, error propagation, and the
   end-to-end determinism contract — check sweeps, experiment tables and
   bench counts must be byte-identical at every pool width. *)

module Pool = Gg_par.Pool

(* Compute-bound busy work so parallel tasks genuinely overlap and
   finish out of submission order (task 0 is the slowest). *)
let busy n =
  let acc = ref 0 in
  for i = 1 to n do
    acc := (!acc * 31) + i
  done;
  !acc

let test_run_ordering () =
  Pool.with_pool ~jobs:4 @@ fun pool ->
  let n = 32 in
  let tasks =
    List.init n (fun i ->
        fun () ->
         ignore (busy ((n - i) * 50_000));
         i)
  in
  Alcotest.(check (list int)) "submission order" (List.init n Fun.id)
    (Pool.run pool tasks)

let test_iter_ordered () =
  Pool.with_pool ~jobs:4 @@ fun pool ->
  let n = 24 in
  let order = ref [] in
  let tasks =
    List.init n (fun i ->
        fun () ->
         ignore (busy ((if i mod 3 = 0 then 40 else 1) * 20_000));
         i * i)
  in
  Pool.iter_ordered pool tasks ~f:(fun i v ->
      Alcotest.(check int) "value matches index" (i * i) v;
      order := i :: !order);
  Alcotest.(check (list int)) "callback order" (List.init n Fun.id)
    (List.rev !order)

let test_seq_is_interleaved () =
  (* jobs=1 must interleave task and callback exactly like the legacy
     sequential loop: t0 f0 t1 f1 ... *)
  let log = ref [] in
  let tasks =
    List.init 4 (fun i ->
        fun () ->
         log := `T i :: !log;
         i)
  in
  Pool.iter_ordered Pool.seq tasks ~f:(fun i _ -> log := `F i :: !log);
  let expected =
    List.concat_map (fun i -> [ `T i; `F i ]) [ 0; 1; 2; 3 ]
  in
  Alcotest.(check bool) "t/f interleaving" true (List.rev !log = expected)

exception Boom of int

let test_exception_propagates () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs @@ fun pool ->
      let tasks =
        List.init 8 (fun i ->
            fun () -> if i = 3 || i = 5 then raise (Boom i) else i)
      in
      match Pool.run pool tasks with
      | _ -> Alcotest.fail "expected exception"
      | exception Boom i ->
        (* lowest-index failure wins at any width *)
        Alcotest.(check int) "first raising task" 3 i)
    [ 1; 4 ]

let test_map_and_auto_jobs () =
  Alcotest.(check bool) "auto jobs >= 1" true (Pool.default_jobs () >= 1);
  Pool.with_pool ~jobs:0 @@ fun pool ->
  Alcotest.(check bool) "auto pool width" true (Pool.jobs pool >= 1);
  Alcotest.(check (list int)) "map" [ 2; 4; 6 ]
    (Pool.map pool (fun x -> 2 * x) [ 1; 2; 3 ])

let test_more_tasks_than_jobs () =
  Pool.with_pool ~jobs:2 @@ fun pool ->
  let n = 100 in
  Alcotest.(check int) "all tasks ran" (n * (n - 1) / 2)
    (List.fold_left ( + ) 0 (Pool.run pool (List.init n (fun i () -> i))))

(* --- determinism contracts: parallel output == sequential output --- *)

let check_log ~pool seeds =
  let buf = Buffer.create 4096 in
  let report =
    Gg_check.Checker.check
      ~log:(fun line ->
        Buffer.add_string buf line;
        Buffer.add_char buf '\n')
      ~fast:true ~pool ~seeds ()
  in
  Buffer.add_string buf
    (Printf.sprintf "%d/%d/%d" report.Gg_check.Checker.seeds_run
       report.Gg_check.Checker.total_commits
       (List.length report.Gg_check.Checker.failures));
  Buffer.contents buf

let test_check_byte_identical () =
  let seeds = 4 in
  let sequential = check_log ~pool:Pool.seq seeds in
  let parallel =
    Pool.with_pool ~jobs:4 (fun pool -> check_log ~pool seeds)
  in
  Alcotest.(check string) "check sweep log" sequential parallel

let tiny_setting =
  {
    Gg_harness.Experiments.ycsb_records = 500;
    ycsb_connections = 8;
    tpcc_cfg = { Gg_workload.Tpcc.small with Gg_workload.Tpcc.warehouses = 2 };
    tpcc_connections = 4;
    warmup_ms = 100;
    measure_ms = 200;
  }

let experiment_tables ?(fast = true) ~pool name =
  match Gg_harness.Experiments.tables ~pool ~setting:tiny_setting ~fast name with
  | Some ts -> String.concat "\n" ts
  | None -> Alcotest.fail ("unknown experiment " ^ name)

let test_experiments_byte_identical () =
  (* One suite per grid shape: fig5's rows of unequal length (TPC-C
     runs 7 systems, each YCSB mix 11), fig7's and fig8's tables of
     rows of cells, fig9's per-workload sweeps and the two tables
     ablations builds from one wave; and fig7 in full mode, whose second
     delay splits its rows per delay. *)
  List.iter
    (fun (name, fast) ->
      let sequential = experiment_tables ~fast ~pool:Pool.seq name in
      let parallel =
        Pool.with_pool ~jobs:4 (fun pool -> experiment_tables ~fast ~pool name)
      in
      let mode = if fast then "" else " (full mode)" in
      Alcotest.(check string) (name ^ mode ^ " tables") sequential parallel)
    [
      ("fig5", true); ("fig7", true); ("fig8", true); ("fig9", true);
      ("ablations", true); ("fig7", false);
    ]

let test_fig_skew_byte_identical () =
  (* The merge-granularity grid fans its workload x level cells across
     the pool; tables (and the BENCH_skew.json it rewrites, twice with
     identical content) must not depend on the width. *)
  let sequential = experiment_tables ~pool:Pool.seq "fig_skew" in
  let parallel =
    Pool.with_pool ~jobs:4 (fun pool -> experiment_tables ~pool "fig_skew")
  in
  Alcotest.(check string) "fig_skew tables" sequential parallel

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "run preserves submission order" `Quick
            test_run_ordering;
          Alcotest.test_case "iter_ordered streams in order" `Quick
            test_iter_ordered;
          Alcotest.test_case "jobs=1 interleaves like the legacy loop" `Quick
            test_seq_is_interleaved;
          Alcotest.test_case "first exception propagates" `Quick
            test_exception_propagates;
          Alcotest.test_case "map / auto jobs" `Quick test_map_and_auto_jobs;
          Alcotest.test_case "more tasks than workers" `Quick
            test_more_tasks_than_jobs;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "check sweep byte-identical -j1 vs -j4" `Slow
            test_check_byte_identical;
          Alcotest.test_case "experiment tables byte-identical -j1 vs -j4"
            `Slow test_experiments_byte_identical;
          Alcotest.test_case "fig_skew tables byte-identical -j1 vs -j4"
            `Slow test_fig_skew_byte_identical;
        ] );
    ]
