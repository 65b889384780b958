(* Observability substrate tests: instrument registry, trace ring
   buffer, JSONL codec, trace analysis and the end-to-end guarantee that
   a seeded traced run is byte-reproducible. *)

module Obs = Gg_obs.Obs
module Jsonl = Gg_obs.Jsonl
module Trace_view = Gg_obs.Trace_view

(* --- registry --- *)

let test_counter_get_or_create () =
  let obs = Obs.create () in
  let a = Obs.counter obs "x.count" in
  Obs.Counter.add a 3;
  let b = Obs.counter obs "x.count" in
  Alcotest.(check int) "same instrument" 3 (Obs.Counter.value b);
  Obs.Counter.incr b;
  Alcotest.(check int) "shared state" 4 (Obs.Counter.value a)

let test_kind_mismatch_rejected () =
  let obs = Obs.create () in
  ignore (Obs.counter obs "x");
  Alcotest.check_raises "gauge over counter"
    (Invalid_argument "Obs: instrument kind mismatch for x") (fun () ->
      ignore (Obs.gauge obs "x"))

let test_counter_values_registration_order () =
  let obs = Obs.create () in
  Obs.Counter.incr (Obs.counter obs "b");
  ignore (Obs.histogram obs "h");
  Obs.Counter.add (Obs.counter obs "a") 2;
  ignore (Obs.counter obs "b");
  (* histograms are not counters; re-lookup must not re-register *)
  Alcotest.(check (list (pair string int)))
    "insertion order, counters only"
    [ ("b", 1); ("a", 2) ]
    (Obs.counter_values obs)

let test_reset_all () =
  let obs = Obs.create () in
  let c = Obs.counter obs "c" in
  let g = Obs.gauge obs "g" in
  let h = Obs.histogram obs "h" in
  Obs.Counter.add c 5;
  Obs.Gauge.set g 2.5;
  Obs.Histogram.observe h 10.0;
  let hook_runs = ref 0 in
  Obs.on_reset obs (fun () -> incr hook_runs);
  Obs.set_tracing obs true;
  Obs.emit obs ~cat:"t" "e";
  Obs.reset_all obs;
  Alcotest.(check int) "counter zeroed" 0 (Obs.Counter.value c);
  Alcotest.(check (float 0.0)) "gauge zeroed" 0.0 (Obs.Gauge.value g);
  Alcotest.(check int) "histogram emptied" 0 (Obs.Histogram.count h);
  Alcotest.(check int) "hook ran once" 1 !hook_runs;
  Alcotest.(check int) "trace cleared" 0 (List.length (Obs.events obs))

(* --- tracer --- *)

let test_emit_disabled_is_noop () =
  let obs = Obs.create () in
  Obs.emit obs ~cat:"txn" "commit";
  Alcotest.(check int) "no events buffered" 0 (Obs.events_total obs);
  Alcotest.(check (list unit)) "empty" []
    (List.map (fun _ -> ()) (Obs.events obs))

let test_ring_buffer_wraps () =
  let obs = Obs.create ~trace_capacity:4 () in
  Obs.set_tracing obs true;
  for i = 1 to 6 do
    Obs.emit obs ~at:i ~cat:"t" (Printf.sprintf "e%d" i)
  done;
  Alcotest.(check int) "total counts overwritten" 6 (Obs.events_total obs);
  Alcotest.(check int) "dropped = total - capacity" 2 (Obs.dropped_events obs);
  Alcotest.(check (list string))
    "survivors oldest first"
    [ "e3"; "e4"; "e5"; "e6" ]
    (List.map (fun (e : Obs.Trace.event) -> e.Obs.Trace.name) (Obs.events obs))

let test_clock_and_defaults () =
  let obs = Obs.create () in
  let now = ref 42 in
  Obs.set_clock obs (fun () -> !now);
  Obs.set_tracing obs true;
  Obs.emit obs ~cat:"t" "tick";
  now := 99;
  Obs.emit obs ~at:7 ~cat:"t" "backdated";
  match Obs.events obs with
  | [ a; b ] ->
    Alcotest.(check int) "clock time" 42 a.Obs.Trace.at;
    Alcotest.(check int) "explicit at wins" 7 b.Obs.Trace.at;
    Alcotest.(check int) "node default" (-1) a.Obs.Trace.node;
    Alcotest.(check int) "dur default" (-1) a.Obs.Trace.dur
  | l -> Alcotest.failf "expected 2 events, got %d" (List.length l)

(* --- JSONL codec --- *)

let test_jsonl_roundtrip () =
  let v =
    Jsonl.Obj
      [
        ("type", Jsonl.Str "event");
        ("at", Jsonl.Int 123456);
        ("neg", Jsonl.Int (-1));
        ("f", Jsonl.Float 2.5);
        ("s", Jsonl.Str "quote\" slash\\ nl\n tab\t");
        ("l", Jsonl.List [ Jsonl.Bool true; Jsonl.Null ]);
        ("o", Jsonl.Obj [ ("k", Jsonl.Str "v") ]);
      ]
  in
  let s = Jsonl.to_string v in
  (match Jsonl.parse s with
  | Ok v' -> Alcotest.(check bool) "roundtrip" true (v = v')
  | Error m -> Alcotest.failf "parse failed: %s" m);
  Alcotest.(check string) "deterministic bytes" s
    (Jsonl.to_string
       (match Jsonl.parse s with Ok v -> v | Error _ -> Jsonl.Null))

let test_jsonl_rejects_garbage () =
  (match Jsonl.parse "{\"a\": 1} trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted");
  match Jsonl.parse "{\"a\": }" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad value accepted"

let test_jsonl_control_chars () =
  let s = Jsonl.to_string (Jsonl.Str "a\x01b\x1fc\x00") in
  Alcotest.(check string) "control chars \\u-escaped"
    "\"a\\u0001b\\u001fc\\u0000\"" s;
  (* a trace line must never contain a raw newline or control byte *)
  String.iter
    (fun c -> Alcotest.(check bool) "no raw control byte" true (Char.code c >= 0x20))
    s;
  match Jsonl.parse s with
  | Ok (Jsonl.Str s') -> Alcotest.(check string) "parses back" "a\x01b\x1fc\x00" s'
  | Ok _ -> Alcotest.fail "wrong shape"
  | Error m -> Alcotest.failf "parse failed: %s" m

let test_jsonl_non_finite_floats () =
  Alcotest.(check string) "nan renders null" "null"
    (Jsonl.to_string (Jsonl.Float Float.nan));
  Alcotest.(check string) "+inf renders 1e999" "1e999"
    (Jsonl.to_string (Jsonl.Float Float.infinity));
  Alcotest.(check string) "-inf renders -1e999" "-1e999"
    (Jsonl.to_string (Jsonl.Float Float.neg_infinity));
  (match Jsonl.parse "1e999" with
  | Ok (Jsonl.Float f) ->
    Alcotest.(check bool) "1e999 parses to +inf" true (f = Float.infinity)
  | _ -> Alcotest.fail "1e999 did not parse as a float");
  match Jsonl.parse "-1e999" with
  | Ok (Jsonl.Float f) ->
    Alcotest.(check bool) "-1e999 parses to -inf" true (f = Float.neg_infinity)
  | _ -> Alcotest.fail "-1e999 did not parse as a float"

(* Round-trip property over arbitrary values, including non-finite
   floats and control-character strings. NaN renders as [null], so
   value-level equality cannot hold in general; what the exporter needs
   is byte-level idempotence: once rendered, re-parsing and re-rendering
   reproduces the exact bytes. *)
let jsonl_gen =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return Jsonl.Null;
        map (fun b -> Jsonl.Bool b) bool;
        map (fun i -> Jsonl.Int i) int;
        map (fun f -> Jsonl.Float f)
          (oneof
             [
               float;
               oneofl [ Float.nan; Float.infinity; Float.neg_infinity; 0.0; -0.0 ];
             ]);
        map (fun s -> Jsonl.Str s) (string_size ~gen:(map Char.chr (0 -- 255)) (0 -- 20));
      ]
  in
  fix
    (fun self depth ->
      if depth = 0 then scalar
      else
        frequency
          [
            (3, scalar);
            (1, map (fun l -> Jsonl.List l) (list_size (0 -- 4) (self (depth - 1))));
            ( 1,
              map
                (fun kvs -> Jsonl.Obj kvs)
                (list_size (0 -- 4)
                   (pair (string_size ~gen:printable (0 -- 8)) (self (depth - 1)))) );
          ])
    2

let prop_jsonl_roundtrip =
  QCheck.Test.make ~count:500 ~name:"jsonl render/parse/render is byte-stable"
    (QCheck.make jsonl_gen) (fun v ->
      let s = Jsonl.to_string v in
      (* every rendered line is newline- and control-free *)
      String.iter
        (fun c -> if Char.code c < 0x20 then QCheck.Test.fail_report "raw control byte")
        s;
      match Jsonl.parse s with
      | Error m -> QCheck.Test.fail_reportf "did not parse back: %s (%s)" m s
      | Ok v' -> String.equal s (Jsonl.to_string v'))

(* --- trace analysis --- *)

let ev ?(node = 0) ?(epoch = -1) ?(span = -1) ?(dur = -1) ?(detail = "") ~at cat
    name =
  Jsonl.to_string
    (Jsonl.Obj
       [
         ("type", Jsonl.Str "event");
         ("at", Jsonl.Int at);
         ("node", Jsonl.Int node);
         ("cat", Jsonl.Str cat);
         ("name", Jsonl.Str name);
         ("epoch", Jsonl.Int epoch);
         ("span", Jsonl.Int span);
         ("dur", Jsonl.Int dur);
         ("detail", Jsonl.Str detail);
       ])

let test_trace_view_analyses () =
  let lines =
    [
      "{\"type\":\"meta\",\"label\":\"t\",\"nodes\":2,\"epoch_us\":10000,\
       \"seed\":1,\"events\":10,\"dropped\":0}";
      (* epoch 5: sealed on both nodes, merges 1 ms apart *)
      ev ~at:50_000 ~node:0 ~epoch:5 "epoch" "seal";
      ev ~at:50_010 ~node:1 ~epoch:5 "epoch" "seal";
      ev ~at:60_000 ~node:0 ~epoch:5 ~dur:200 "epoch" "merge.commit";
      ev ~at:61_000 ~node:1 ~epoch:5 ~dur:300 "epoch" "merge.commit";
      (* one committed txn in epoch 5 on node 0 *)
      ev ~at:52_000 ~node:0 ~epoch:5 ~span:9 ~dur:100 "txn" "phase.parse";
      ev ~at:52_100 ~node:0 ~epoch:5 ~span:9 ~dur:400 "txn" "phase.exec";
      ev ~at:52_500 ~node:0 ~epoch:5 ~span:9 ~dur:7_000 "txn" "phase.wait";
      ev ~at:59_500 ~node:0 ~epoch:5 ~span:9 ~dur:200 "txn" "phase.merge";
      ev ~at:59_700 ~node:0 ~epoch:5 ~span:9 ~dur:300 "txn" "phase.log";
      ev ~at:62_000 ~node:0 ~epoch:5 ~span:9 ~dur:12_000 "txn" "commit";
      (* epoch 6: single-node merge, an abort *)
      ev ~at:70_000 ~node:0 ~epoch:6 "epoch" "seal";
      ev ~at:80_000 ~node:0 ~epoch:6 ~dur:500 "epoch" "merge.commit";
      ev ~at:81_000 ~node:1 ~epoch:6 ~span:3 ~dur:9_000 "txn" "abort";
      "{\"type\":\"snapshot\",\"at\":100000,\"counters\":{\"sim.events\":42}}";
    ]
  in
  match Trace_view.of_lines lines with
  | Error m -> Alcotest.failf "load failed: %s" m
  | Ok t ->
    Alcotest.(check int) "events parsed" 13 (List.length t.Trace_view.events);
    Alcotest.(check int) "snapshot parsed" 1 (List.length t.Trace_view.snapshots);
    let rows = Trace_view.epoch_rows t in
    Alcotest.(check (list int)) "epochs sorted" [ 5; 6 ]
      (List.map (fun r -> r.Trace_view.er_epoch) rows);
    let r5 = List.hd rows in
    Alcotest.(check int) "earliest seal" 50_000 r5.Trace_view.er_seal_at;
    Alcotest.(check int) "merge nodes" 2 r5.Trace_view.er_merge_nodes;
    Alcotest.(check int) "max merge dur" 300 r5.Trace_view.er_merge_max_us;
    Alcotest.(check int) "skew = spread of merge.commit" 1_000
      r5.Trace_view.er_skew_us;
    Alcotest.(check int) "commits" 1 r5.Trace_view.er_commits;
    let r6 = List.nth rows 1 in
    Alcotest.(check int) "single-node merge has no skew" 0
      r6.Trace_view.er_skew_us;
    Alcotest.(check int) "aborts" 1 r6.Trace_view.er_aborts;
    (match Trace_view.phase_breakdown t with
    | [ p0 ] ->
      Alcotest.(check int) "node" 0 p0.Trace_view.pr_node;
      Alcotest.(check int) "txns" 1 p0.Trace_view.pr_txns;
      Alcotest.(check (float 1e-6)) "wait mean ms" 7.0 p0.Trace_view.pr_wait_ms
    | l -> Alcotest.failf "expected 1 phase row, got %d" (List.length l));
    let mean_skew, max_skew = Trace_view.skew_stats t in
    Alcotest.(check int) "max skew" 1_000 max_skew;
    Alcotest.(check (float 1e-6)) "mean skew over multi-node epochs" 1_000.0
      mean_skew;
    (match Trace_view.slowest_epochs t ~top:1 with
    | [ worst ] ->
      Alcotest.(check int) "slowest epoch by merge" 6 worst.Trace_view.er_epoch
    | l -> Alcotest.failf "expected 1, got %d" (List.length l));
    (* report renders without raising and mentions both epochs *)
    let report = Trace_view.render_report t in
    Alcotest.(check bool) "report nonempty" true (String.length report > 200)

(* --- end-to-end: traced harness runs are byte-identical --- *)

let traced_run path =
  let profile =
    Gg_workload.Ycsb.with_records Gg_workload.Ycsb.medium_contention 2_000
  in
  let r, _ =
    Gg_harness.Driver.run_geogauss ~connections:8 ~trace_file:path
      ~topology:(Gg_sim.Topology.china3 ())
      ~load:(Gg_workload.Ycsb.load profile)
      ~gen:(Gg_harness.Driver.ycsb_gens profile ~seed:11)
      ~warmup_ms:200 ~measure_ms:400 ~label:"trace-test" ()
  in
  r

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_traced_run_deterministic () =
  let p1 = Filename.temp_file "ggtrace1" ".jsonl" in
  let p2 = Filename.temp_file "ggtrace2" ".jsonl" in
  let r1 = traced_run p1 in
  let r2 = traced_run p2 in
  Alcotest.(check int) "same committed" r1.Gg_harness.Result.committed
    r2.Gg_harness.Result.committed;
  let s1 = read_file p1 and s2 = read_file p2 in
  Sys.remove p1;
  Sys.remove p2;
  Alcotest.(check bool) "trace nonempty" true (String.length s1 > 1_000);
  Alcotest.(check bool) "byte-identical traces" true (String.equal s1 s2)

let test_traced_run_loads_and_analyzes () =
  let path = Filename.temp_file "ggtrace" ".jsonl" in
  let r = traced_run path in
  (match Trace_view.load_file path with
  | Error m -> Alcotest.failf "trace unreadable: %s" m
  | Ok t ->
    Alcotest.(check bool) "has events" true (List.length t.Trace_view.events > 0);
    Alcotest.(check bool) "has snapshots" true
      (List.length t.Trace_view.snapshots > 0);
    (* every committed txn in the window produced a commit event *)
    let commits =
      List.length
        (List.filter
           (fun (e : Obs.Trace.event) ->
             e.Obs.Trace.cat = "txn" && e.Obs.Trace.name = "commit")
           t.Trace_view.events)
    in
    Alcotest.(check int) "commit events match result" r.Gg_harness.Result.committed
      commits;
    Alcotest.(check bool) "epoch rows present" true
      (List.length (Trace_view.epoch_rows t) > 0));
  Sys.remove path

(* --- causal propagation + critical-path attribution --- *)

let traced_run_custom ?(warmup_ms = 200) ?(fastpath = false) path =
  let profile =
    Gg_workload.Ycsb.with_records Gg_workload.Ycsb.medium_contention 2_000
  in
  let params =
    Geogauss.Params.with_fastpath Geogauss.Params.default fastpath
  in
  let r, _ =
    Gg_harness.Driver.run_geogauss ~params ~connections:8 ~trace_file:path
      ~topology:(Gg_sim.Topology.china3 ())
      ~load:(Gg_workload.Ycsb.load profile)
      ~gen:(Gg_harness.Driver.ycsb_gens profile ~seed:11)
      ~warmup_ms ~measure_ms:400 ~label:"trace-test" ()
  in
  r

let load_trace path =
  match Trace_view.load_file path with
  | Ok t -> t
  | Error m -> Alcotest.failf "trace unreadable: %s" m

(* With no warm-up the buffer covers the whole run, so every
   receive-side span's parent (batch EOFs, ft acks/commits, txn commit
   merges) must resolve to an emitted event — zero orphans. (With a
   warm-up, sends predating the reset legitimately dangle near the
   window start; that case is covered by the sampling counters in the
   critical-path report instead.) *)
let test_no_orphan_parents () =
  let path = Filename.temp_file "ggorphan" ".jsonl" in
  ignore (traced_run_custom ~warmup_ms:0 path);
  let t = load_trace path in
  Sys.remove path;
  let with_parent, unresolved = Trace_view.unresolved_parents t in
  Alcotest.(check bool) "receive-side events present" true (with_parent > 100);
  Alcotest.(check int) "every parent span resolves" 0 unresolved

(* Shared by the classic and eocc phase-sum tests: all eight phases of
   every sampled transaction are non-negative and telescope to exactly
   the commit latency. *)
let check_phase_sums (rep : Trace_view.cp_report) =
  List.iter
    (fun (c : Trace_view.cp_txn) ->
      let sum =
        c.Trace_view.cp_execute + c.Trace_view.cp_seal_wait + c.Trace_view.cp_wan
        + c.Trace_view.cp_merge_wait + c.Trace_view.cp_spec_wait
        + c.Trace_view.cp_confirm_wait + c.Trace_view.cp_validate
        + c.Trace_view.cp_commit
      in
      if sum <> c.Trace_view.cp_latency_us then
        Alcotest.failf
          "node %d span %d: phases sum to %d but latency is %d"
          c.Trace_view.cp_node c.Trace_view.cp_span sum c.Trace_view.cp_latency_us;
      List.iter
        (fun (label, v) -> if v < 0 then Alcotest.failf "%s negative: %d" label v)
        [
          ("execute", c.Trace_view.cp_execute);
          ("seal_wait", c.Trace_view.cp_seal_wait);
          ("wan", c.Trace_view.cp_wan);
          ("merge_wait", c.Trace_view.cp_merge_wait);
          ("spec_wait", c.Trace_view.cp_spec_wait);
          ("confirm_wait", c.Trace_view.cp_confirm_wait);
          ("validate", c.Trace_view.cp_validate);
          ("commit", c.Trace_view.cp_commit);
        ])
    rep.Trace_view.cpr_txns

let test_critical_path_sums_to_latency () =
  let path = Filename.temp_file "ggcp" ".jsonl" in
  let r = traced_run_custom path in
  let t = load_trace path in
  Sys.remove path;
  let rep = Trace_view.critical_path t in
  Alcotest.(check int) "commit count matches result"
    r.Gg_harness.Result.committed rep.Trace_view.cpr_committed;
  Alcotest.(check bool) "sampled a meaningful fraction" true
    (List.length rep.Trace_view.cpr_txns > rep.Trace_view.cpr_committed / 2);
  check_phase_sums rep;
  (* the classic engine never speculates, so the fast-path phases are 0 *)
  List.iter
    (fun (c : Trace_view.cp_txn) ->
      Alcotest.(check int) "classic spec_wait" 0 c.Trace_view.cp_spec_wait;
      Alcotest.(check int) "classic confirm_wait" 0 c.Trace_view.cp_confirm_wait)
    rep.Trace_view.cpr_txns;
  (* cross-region traffic flowed and was attributed to region pairs *)
  let wan = Trace_view.wan_report t in
  Alcotest.(check bool) "wan bytes flowed" true (wan.Trace_view.wr_total_bytes > 0);
  Alcotest.(check bool) "region pairs attributed" true
    (List.exists (fun (_, b) -> b > 0) wan.Trace_view.wr_pairs);
  (* rendering and the JSON reports are pure functions of the trace *)
  Alcotest.(check string) "render deterministic"
    (Trace_view.render_critical_path t)
    (Trace_view.render_critical_path t);
  Alcotest.(check string) "json deterministic"
    (Jsonl.to_string (Trace_view.critical_path_json t))
    (Jsonl.to_string (Trace_view.critical_path_json t));
  Alcotest.(check string) "wan json deterministic"
    (Jsonl.to_string (Trace_view.wan_json t))
    (Jsonl.to_string (Trace_view.wan_json t))

(* Same telescoping invariant under the clock-assisted fast path
   (DESIGN.md §14): confirmed speculative epochs take the
   spec_wait/confirm_wait cut (with wan = merge_wait = 0), classic and
   mispredicted epochs fall back to the six-phase cut — either way the
   eight phases must still sum to the commit latency exactly. *)
let test_critical_path_sums_eocc () =
  let path = Filename.temp_file "ggcpfp" ".jsonl" in
  let r = traced_run_custom ~fastpath:true path in
  let t = load_trace path in
  Sys.remove path;
  let rep = Trace_view.critical_path t in
  Alcotest.(check int) "commit count matches result"
    r.Gg_harness.Result.committed rep.Trace_view.cpr_committed;
  check_phase_sums rep;
  (* the speculative cut was actually taken for some sampled txns *)
  let spec_cut =
    List.filter
      (fun (c : Trace_view.cp_txn) ->
        c.Trace_view.cp_spec_wait + c.Trace_view.cp_confirm_wait > 0)
      rep.Trace_view.cpr_txns
  in
  Alcotest.(check bool) "some txns took the spec cut" true (spec_cut <> []);
  List.iter
    (fun (c : Trace_view.cp_txn) ->
      Alcotest.(check int) "spec cut: wan folded into confirm_wait" 0
        c.Trace_view.cp_wan;
      Alcotest.(check int) "spec cut: merge_wait folded into spec_wait" 0
        c.Trace_view.cp_merge_wait)
    spec_cut

(* The harness pool fans whole simulations out over domains; a traced
   run must produce the same bytes whether it runs on the calling domain
   or inside a worker at any -j width. *)
let test_trace_bytes_identical_across_pool_jobs () =
  let run_in_pool jobs =
    let paths =
      List.init 2 (fun i -> Filename.temp_file (Printf.sprintf "ggpool%d_%d" jobs i) ".jsonl")
    in
    Gg_par.Pool.with_pool ~jobs (fun pool ->
        ignore
          (Gg_par.Pool.run pool
             (List.map (fun p () -> traced_run_custom p) paths)));
    let contents = List.map read_file paths in
    List.iter Sys.remove paths;
    contents
  in
  let seq = run_in_pool 1 and par = run_in_pool 4 in
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "task %d: -j1 vs -j4 byte-identical" i)
        true (String.equal a b))
    (List.combine seq par)

let test_untraced_run_buffers_nothing () =
  let profile =
    Gg_workload.Ycsb.with_records Gg_workload.Ycsb.medium_contention 1_000
  in
  let cluster =
    Geogauss.Cluster.create
      ~topology:(Gg_sim.Topology.china3 ())
      ~load:(Gg_workload.Ycsb.load profile)
      ()
  in
  Geogauss.Cluster.run_for_ms cluster 100;
  Alcotest.(check int) "zero events without tracing" 0
    (Obs.events_total (Geogauss.Cluster.obs cluster))

let () =
  Alcotest.run "gg_obs"
    [
      ( "registry",
        [
          Alcotest.test_case "counter get-or-create" `Quick test_counter_get_or_create;
          Alcotest.test_case "kind mismatch rejected" `Quick test_kind_mismatch_rejected;
          Alcotest.test_case "counter_values order" `Quick test_counter_values_registration_order;
          Alcotest.test_case "reset_all" `Quick test_reset_all;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "disabled emit is noop" `Quick test_emit_disabled_is_noop;
          Alcotest.test_case "ring buffer wraps" `Quick test_ring_buffer_wraps;
          Alcotest.test_case "clock + defaults" `Quick test_clock_and_defaults;
        ] );
      ( "jsonl",
        [
          Alcotest.test_case "roundtrip" `Quick test_jsonl_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_jsonl_rejects_garbage;
          Alcotest.test_case "control chars" `Quick test_jsonl_control_chars;
          Alcotest.test_case "non-finite floats" `Quick test_jsonl_non_finite_floats;
          QCheck_alcotest.to_alcotest prop_jsonl_roundtrip;
        ] );
      ( "trace_view",
        [ Alcotest.test_case "analyses" `Quick test_trace_view_analyses ] );
      ( "causal",
        [
          Alcotest.test_case "no orphan parents (warmup 0)" `Slow test_no_orphan_parents;
          Alcotest.test_case "critical path sums to latency" `Slow
            test_critical_path_sums_to_latency;
          Alcotest.test_case "critical path sums to latency (eocc)" `Slow
            test_critical_path_sums_eocc;
          Alcotest.test_case "byte-identical across pool -j" `Slow
            test_trace_bytes_identical_across_pool_jobs;
        ] );
      ( "end_to_end",
        [
          Alcotest.test_case "byte-identical traces" `Slow test_traced_run_deterministic;
          Alcotest.test_case "trace loads + analyzes" `Slow test_traced_run_loads_and_analyzes;
          Alcotest.test_case "untraced buffers nothing" `Quick test_untraced_run_buffers_nothing;
        ] );
    ]
