(* End-to-end benchmark of the GeoGauss simulator: the paper's simulated
   metrics plus host cost, on five workloads, with a replay-traced
   per-layer split of host time. README.md documents the metrics, the
   workloads and the checks.

   Every run of a workload is a fresh child process (this executable
   with --child), so runs are independent and heap numbers are clean.
   Usage:

     e2e.exe [--seed S] [--out FILE]
         every workload, 5 reps interleaved rep-major, then one traced
         run each; prints "workload metric value unit" lines and writes
         per-rep values with q1/median/q3 to FILE
     e2e.exe --workload W --seed S --seconds T --trace 0|1
         one workload: untraced reps for T seconds (--trace 0), or
         untraced reps for T/2 seconds then a traced run (--trace 1);
         the last line is one JSON result
     e2e.exe --smoke [--manifest BENCHMARK.json]
         every workload at 0.2 s simulated, one rep plus the traced run,
         and every metric the manifest names must be printed *)

open Gg_e2e
module Jsonl = Gg_obs.Jsonl

let end_to_end =
  [
    ("sim_tput_txn_s", "txn/s");
    ("sim_p50_ms", "ms");
    ("sim_p99_ms", "ms");
    ("commit_ratio", "ratio");
    ("wan_kb_per_txn", "KB");
    ("host_s_per_sim_s", "s/s");
    ("setup_s", "s");
    ("heap_peak_mb", "MB");
  ]

(* A pure function of the seed: every run of a workload must agree on
   these exactly. *)
let simulated =
  [
    "sim_tput_txn_s"; "sim_p50_ms"; "sim_p99_ms"; "commit_ratio";
    "wan_kb_per_txn";
  ]

let per_layer =
  [
    ("sim.events_per_sim_s", "1/s");
    ("sim.host_ns_per_event", "ns");
    ("net.messages_per_txn", "count");
    ("net.bytes_per_txn", "B");
    ("workload.gen_ns_per_txn", "ns");
    ("workload.share", "frac");
    ("op_exec.ns_per_txn", "ns");
    ("op_exec.share", "frac");
    ("sql.parse_ns_per_stmt", "ns");
    ("sql.exec_ns_per_stmt", "ns");
    ("sql.share", "frac");
    ("writeset.to_wire_calls", "count");
    ("writeset.encode_ns_per_call", "ns");
    ("writeset.to_wire_ns_per_call", "ns");
    ("writeset.share", "frac");
    ("compress.ns_per_call", "ns");
    ("compress.major_words_per_call", "words");
    ("compress.share", "frac");
    ("epoch_merge.records_per_sim_s", "1/s");
    ("epoch_merge.ns_per_record", "ns");
    ("epoch_merge.commit_ratio", "ratio");
    ("epoch_merge.share", "frac");
    ("epoch_merge.epochs_over_par_threshold", "count");
    ("epoch_merge.records_per_epoch_p99", "count");
    ("gc.minor_words_per_sim_s", "words/s");
    ("gc.major_words_per_sim_s", "words/s");
    ("gc.major_collections_per_sim_s", "1/s");
    ("fastpath.spec_per_epoch", "ratio");
    ("fastpath.mispredict_rate", "ratio");
    ("phase.exec_ms", "ms");
    ("phase.wait_ms", "ms");
    ("phase.merge_ms", "ms");
    ("phase.log_ms", "ms");
    ("layers.residual_share", "frac");
    ("trace.overhead_frac", "frac");
  ]

let unit_of name =
  match List.assoc_opt name end_to_end with
  | Some u -> u
  | None -> List.assoc name per_layer

(* --- one run, in a child process ---------------------------------------- *)

(* p99 needs at least ten samples beyond it. *)
let min_commits ~smoke = if smoke then 100 else 1000

let floats kvs = Jsonl.Obj (List.map (fun (k, v) -> (k, Jsonl.Float v)) kvs)

let child ~smoke ~seed ~traced name =
  let w = Workload.make ~smoke ~seed name in
  let probe = if traced then Some (Drive.probe ()) else None in
  let d = Drive.run ?probe w in
  let metrics = Drive.metrics w d in
  let replay = Option.map (Replay.run w d) probe in
  let r = d.Drive.result in
  let c = r.Gg_harness.Result.committed in
  let floor = min_commits ~smoke in
  let failures =
    (match d.Drive.digests with
    | first :: rest when List.exists (( <> ) first) rest ->
      [ "replica digests differ after quiesce" ]
    | _ -> [])
    @ (if c < floor then
         [ Printf.sprintf "%d commits in the window, below %d" c floor ]
       else [])
    @ match replay with Some rp -> rp.Replay.failures | None -> []
  in
  let opt f = match replay with Some rp -> f rp | None -> [] in
  print_endline
    (Jsonl.to_string
       (Jsonl.Obj
          [
            ("committed", Jsonl.Int c);
            ("aborted", Jsonl.Int r.Gg_harness.Result.aborted);
            ("failed", Jsonl.Int d.Drive.failed);
            ( "p99_tail",
              Jsonl.Int (c - int_of_float (ceil (0.99 *. float_of_int c))) );
            ("metrics", floats metrics);
            ("replay", floats (opt (fun rp -> rp.Replay.metrics)));
            ("coverage", floats (opt (fun rp -> rp.Replay.coverage)));
            ( "failures",
              Jsonl.List (List.map (fun s -> Jsonl.Str s) failures) );
          ]))

(* --- parent: spawn runs and read them back ------------------------------ *)

type rep = {
  committed : int;
  aborted : int;
  failed : int;
  p99_tail : int;
  metrics : (string * float) list;
  replay : (string * float) list;
  coverage : (string * float) list;
  failures : string list;
}

let fields = function
  | Some (Jsonl.Obj kvs) ->
    List.map
      (fun (k, v) ->
        ( k,
          match v with
          | Jsonl.Float f -> f
          | Jsonl.Int i -> float_of_int i
          | _ -> Float.nan ))
      kvs
  | _ -> []

let parse_rep line =
  match Jsonl.parse line with
  | Error e -> failwith ("unreadable run result: " ^ e)
  | Ok j ->
    let int k = Jsonl.to_int (Jsonl.member k j) in
    {
      committed = int "committed";
      aborted = int "aborted";
      failed = int "failed";
      p99_tail = int "p99_tail";
      metrics = fields (Jsonl.member "metrics" j);
      replay = fields (Jsonl.member "replay" j);
      coverage = fields (Jsonl.member "coverage" j);
      failures =
        (match Jsonl.member "failures" j with
        | Some (Jsonl.List l) ->
          List.map (function Jsonl.Str s -> s | _ -> "?") l
        | _ -> []);
    }

let last_line s =
  match List.rev (String.split_on_char '\n' (String.trim s)) with
  | l :: _ -> l
  | [] -> ""

(* Run one child to completion and wait for it. *)
let spawn ~smoke ~seed ~traced name =
  let exe = Sys.executable_name in
  let args =
    [ exe; "--child"; "--workload"; name; "--seed"; string_of_int seed ]
    @ (if traced then [ "--traced" ] else [])
    @ if smoke then [ "--smoke" ] else []
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe (Array.of_list args) Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> parse_rep (last_line out)
  | _ -> failwith (Printf.sprintf "run of %s (seed %d) failed" name seed)

(* --- aggregation -------------------------------------------------------- *)

let median xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Quartiles as Python's statistics.quantiles(xs, n=4) gives them (the
   exclusive method), so the spread reported here is the one a reader
   computes from the per-rep values. *)
let quartiles xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n < 2 then (median xs, median xs)
  else
    let q p =
      let pos = p *. float_of_int (n + 1) in
      let j = max 1 (min (n - 1) (int_of_float (floor pos))) in
      let delta = pos -. float_of_int j in
      a.(j - 1) +. ((a.(j) -. a.(j - 1)) *. delta)
    in
    (q 0.25, q 0.75)

type summary = {
  workload : string;
  e2e : (string * float list) list;  (** per-rep values *)
  layers : (string * float) list;
  coverage : (string * float) list;
  attempted : int;
  failed : int;
  p99_tail : int;
  failures : string list;
}

(* End-to-end metrics and the replay-free layer counters come from the
   untraced reps (medians); the layer split from the traced run. *)
let summarize workload (reps : rep list) (traced : rep option) =
  let all = reps @ Option.to_list traced in
  let values key rs = List.map (fun r -> List.assoc key r.metrics) rs in
  let e2e = List.map (fun (k, _) -> (k, values k reps)) end_to_end in
  let counters =
    List.filter_map
      (fun (k, _) ->
        if List.mem_assoc k end_to_end then None
        else Some (k, median (values k reps)))
      (List.hd reps).metrics
  in
  let layers, coverage =
    match traced with
    | None -> (counters, [])
    | Some t ->
      let overhead =
        (List.assoc "host_s_per_sim_s" t.metrics
        /. median (values "host_s_per_sim_s" reps))
        -. 1.0
      in
      (counters @ t.replay @ [ ("trace.overhead_frac", overhead) ], t.coverage)
  in
  let same key =
    match List.sort_uniq compare (values key all) with
    | [ _ ] -> []
    | _ -> [ Printf.sprintf "%s differs between runs of one seed" key ]
  in
  let counts =
    List.sort_uniq compare (List.map (fun r -> (r.committed, r.aborted)) all)
  in
  let failures =
    List.concat_map (fun (r : rep) -> r.failures) all
    @ List.concat_map same simulated
    @
    if List.length counts > 1 then
      [ "commit/abort counts differ between runs of one seed" ]
    else []
  in
  let sum f = List.fold_left (fun a r -> a + f r) 0 all in
  {
    workload;
    e2e;
    layers;
    coverage;
    attempted = sum (fun (r : rep) -> r.committed + r.aborted);
    failed = sum (fun (r : rep) -> r.failed);
    p99_tail = (List.hd reps : rep).p99_tail;
    failures;
  }

let print_summary s =
  let line name v =
    Printf.printf "%s %s %.12g %s\n" s.workload name v (unit_of name)
  in
  List.iter (fun (k, vs) -> line k (median vs)) s.e2e;
  List.iter (fun (k, v) -> line k v) s.layers;
  Printf.printf "%s p99_tail_samples %d count\n" s.workload s.p99_tail;
  List.iter
    (fun (k, v) -> Printf.printf "%s coverage.%s %.12g ratio\n" s.workload k v)
    s.coverage;
  List.iter (fun f -> Printf.eprintf "FAIL %s: %s\n" s.workload f) s.failures;
  flush stdout

let metric_json name value =
  ( name,
    Jsonl.Obj
      [ ("value", Jsonl.Float value); ("unit", Jsonl.Str (unit_of name)) ] )

let result_json ~correct ~attempted ~failed metrics =
  Jsonl.Obj
    [
      ("correct", Jsonl.Bool correct);
      ("attempted", Jsonl.Int attempted);
      ("failed", Jsonl.Int failed);
      ("metrics", Jsonl.Obj metrics);
    ]

(* One workload in the result schema, with quartiles and per-rep values
   added to the end-to-end metrics. *)
let summary_json s =
  let e2e =
    List.map
      (fun (k, vs) ->
        let q1, q3 = quartiles vs in
        ( k,
          Jsonl.Obj
            [
              ("value", Jsonl.Float (median vs));
              ("unit", Jsonl.Str (unit_of k));
              ("q1", Jsonl.Float q1);
              ("q3", Jsonl.Float q3);
              ("reps", Jsonl.List (List.map (fun v -> Jsonl.Float v) vs));
            ] ))
      s.e2e
  in
  result_json ~correct:(s.failures = []) ~attempted:s.attempted
    ~failed:s.failed
    (e2e @ List.map (fun (k, v) -> metric_json k v) s.layers)

(* --- modes -------------------------------------------------------------- *)

let reps = 5

let full ~seed ~out =
  (* Rep-major: rep 1 of every workload, then rep 2, ... so slow drift on
     the host spreads evenly over the workloads. *)
  let untraced = Array.make (List.length Workload.names) [] in
  for _ = 1 to reps do
    List.iteri
      (fun i name ->
        untraced.(i) <-
          spawn ~smoke:false ~seed ~traced:false name :: untraced.(i))
      Workload.names
  done;
  let summaries =
    List.mapi
      (fun i name ->
        summarize name (List.rev untraced.(i))
          (Some (spawn ~smoke:false ~seed ~traced:true name)))
      Workload.names
  in
  List.iter print_summary summaries;
  let host =
    Jsonl.Obj
      [
        ("nproc", Jsonl.Int (Domain.recommended_domain_count ()));
        ("ocaml", Jsonl.Str Sys.ocaml_version);
        ( "OCAMLRUNPARAM",
          Jsonl.Str (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM"))
        );
      ]
  in
  let workloads = List.map (fun s -> (s.workload, summary_json s)) summaries in
  Out_channel.with_open_bin out (fun oc ->
      Jsonl.write_line oc
        (Jsonl.Obj
           [
             ("seed", Jsonl.Int seed);
             ("reps", Jsonl.Int reps);
             ("host", host);
             ("workloads", Jsonl.Obj workloads);
           ]));
  List.for_all (fun s -> s.failures = []) summaries

(* One workload for [seconds] of host time: untraced reps until the time
   is spent (at least three), or with [trace] untraced reps for half of
   it (at least one) and then the traced run. *)
let single ~seed ~seconds ~trace name =
  let start = Unix.gettimeofday () in
  let budget, min_reps = if trace then (seconds /. 2.0, 1) else (seconds, 3) in
  let rec loop acc =
    let n = List.length acc in
    if n >= min_reps && Unix.gettimeofday () -. start >= budget then
      List.rev acc
    else begin
      let r = spawn ~smoke:false ~seed ~traced:false name in
      Printf.eprintf "%s rep %d: host_s_per_sim_s %.4f setup_s %.4f\n%!" name
        (n + 1)
        (List.assoc "host_s_per_sim_s" r.metrics)
        (List.assoc "setup_s" r.metrics);
      loop (r :: acc)
    end
  in
  let reps = loop [] in
  let traced =
    if trace then Some (spawn ~smoke:false ~seed ~traced:true name) else None
  in
  let s = summarize name reps traced in
  print_summary s;
  let metrics =
    if trace then s.layers
    else List.map (fun (k, vs) -> (k, median vs)) s.e2e
  in
  print_endline
    (Jsonl.to_string
       (result_json ~correct:(s.failures = []) ~attempted:s.attempted
          ~failed:s.failed
          (List.map (fun (k, v) -> metric_json k v) metrics)));
  s.failures = []

(* The (name, unit) pairs of one manifest list; workloads have no unit. *)
let entries manifest key =
  match Jsonl.member key manifest with
  | Some (Jsonl.List l) ->
    List.map
      (fun m ->
        ( Jsonl.to_str (Jsonl.member "name" m),
          Jsonl.to_str (Jsonl.member "unit" m) ))
      l
  | _ -> []

(* Every metric (with its unit) and workload the manifest names must be
   what this program prints, and the reverse. *)
let check_manifest path summaries =
  let manifest =
    match Jsonl.parse (In_channel.with_open_bin path In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith (path ^ ": " ^ e)
  in
  let same what listed printed =
    if List.sort compare listed = List.sort compare printed then []
    else [ Printf.sprintf "%s in %s differ from the ones printed" what path ]
  in
  same "workloads"
    (entries manifest "workloads")
    (List.map (fun w -> (w, "")) Workload.names)
  @ same "end_to_end metrics and units" (entries manifest "end_to_end")
      end_to_end
  @ same "per_layer metrics and units" (entries manifest "per_layer") per_layer
  @ List.concat_map
      (fun s ->
        let printed = List.map fst s.e2e @ List.map fst s.layers in
        List.filter_map
          (fun (k, _) ->
            if List.mem k printed then None
            else Some (Printf.sprintf "%s: metric %s not printed" s.workload k))
          (end_to_end @ per_layer))
      summaries

let smoke ~seed ~manifest =
  let summaries =
    List.map
      (fun name ->
        let rep = spawn ~smoke:true ~seed ~traced:false name in
        summarize name [ rep ]
          (Some (spawn ~smoke:true ~seed ~traced:true name)))
      Workload.names
  in
  List.iter print_summary summaries;
  let problems =
    List.concat_map (fun s -> s.failures) summaries
    @
    match manifest with
    | Some path -> check_manifest path summaries
    | None -> []
  in
  List.iter (Printf.eprintf "FAIL %s\n") problems;
  problems = []

let () =
  let seed = ref 42 and out = ref "e2e_result.json" in
  let workload = ref "" and seconds = ref 0.0 and trace = ref 0 in
  let is_child = ref false and traced = ref false and is_smoke = ref false in
  let manifest = ref None in
  let spec =
    [
      ("--seed", Arg.Set_int seed, "S workload generator seed (default 42)");
      ( "--out",
        Arg.Set_string out,
        "FILE per-rep JSON (default e2e_result.json)" );
      ("--workload", Arg.Set_string workload, "W run one workload");
      ("--seconds", Arg.Set_float seconds, "T host seconds to measure for");
      ( "--trace",
        Arg.Set_int trace,
        "0|1 report end-to-end (0) or per-layer (1) metrics" );
      ("--smoke", Arg.Set is_smoke, " 0.2 s simulated per workload, one rep");
      ( "--manifest",
        Arg.String (fun p -> manifest := Some p),
        "FILE BENCHMARK.json to check against" );
      ("--child", Arg.Set is_child, " (internal) one run, result on stdout");
      ("--traced", Arg.Set traced, " (internal) with --child: the traced run");
    ]
  in
  let usage =
    "e2e.exe [--seed S] [--out FILE]\n\
    \       e2e.exe --workload W --seed S --seconds T --trace 0|1\n\
    \       e2e.exe --smoke [--manifest BENCHMARK.json]"
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !workload <> "" && not (List.mem !workload Workload.names) then begin
    Printf.eprintf "unknown workload %S (known: %s)\n" !workload
      (String.concat ", " Workload.names);
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  let ok =
    try
      if !is_child then begin
        child ~smoke:!is_smoke ~seed:!seed ~traced:!traced !workload;
        true
      end
      else if !is_smoke then smoke ~seed:!seed ~manifest:!manifest
      else if !workload <> "" then
        single ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) !workload
      else full ~seed:!seed ~out:!out
    with Failure m ->
      prerr_endline m;
      false
  in
  exit (if ok then 0 else 1)
