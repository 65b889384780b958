(* Command-line driver: ad-hoc GeoGauss cluster simulations with custom
   parameters, seeded chaos checking and trace analysis. The paper's
   experiments run from bench/main.exe. *)

open Cmdliner

let fast_arg =
  Arg.(value & flag & info [ "fast" ] ~doc:"Shrunk populations and windows.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ]
        ~doc:
          "Fan independent simulations out over $(docv) domains (0 = one per \
           core). Output is byte-identical at any value; 1 is the sequential \
           path.")

let merge_level_conv =
  let parse s =
    match Geogauss.Params.merge_level_of_string s with
    | Ok l -> Ok l
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, fun ppf l ->
      Format.pp_print_string ppf (Geogauss.Params.merge_level_to_string l))

let merge_level_arg =
  Arg.(
    value
    & opt merge_level_conv Geogauss.Params.Row
    & info [ "merge-level" ] ~docv:"LEVEL"
        ~doc:
          "Conflict granularity of the epoch merge: row (the paper's \
           whole-row first-committer-wins) or column (per-field LWW \
           lattice — concurrent updates to disjoint columns of the same \
           row all commit; DESIGN.md \xC2\xA713). column is a usage \
           error with --engine geog-a, which re-applies whole rows.")

let isolation_conv =
  Arg.enum
    [ ("rc", Geogauss.Params.RC); ("rr", Geogauss.Params.RR);
      ("si", Geogauss.Params.SI); ("ssi", Geogauss.Params.SSI) ]

let ft_conv =
  Arg.enum
    [ ("none", Geogauss.Params.Ft_none); ("lb", Geogauss.Params.Ft_local_backup);
      ("rb", Geogauss.Params.Ft_remote_backup); ("raft", Geogauss.Params.Ft_raft) ]

(* Engine names resolve through the one canonical registry
   (Gg_engines.Registry): core names yield a Params transform onto the
   full cluster; baseline timing models are rejected here — they only
   run inside the bench figures. Unknown names fail at parse time with
   the full known list. *)
let core_engine_conv =
  let parse s =
    match Gg_engines.Registry.find s with
    | Gg_engines.Registry.Core f -> Ok (s, f)
    | Gg_engines.Registry.Baseline _ ->
      Error
        (`Msg
           (Printf.sprintf
              "engine %s is a baseline timing model; it runs only in the \
               bench/main.exe figures, not ad-hoc runs"
              s))
    | exception Invalid_argument m -> Error (`Msg m)
  in
  Arg.conv (parse, fun ppf (s, _) -> Format.pp_print_string ppf s)

let clock_skew_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "clock-skew" ] ~docv:"MS"
        ~doc:
          "Bounded clock-skew budget in milliseconds for the eocc fast \
           path (Params.clock_skew_us): each node's simulated clock \
           drifts within \xC2\xB1$(docv) of true time. Needs --engine \
           eocc; the other engines' clocks are exact.")

(* --engine with the flags whose meaning depends on it, shared by `run`
   and `check`. Each pair the engine cannot honour is a usage error
   instead of being silently dropped or coerced: the skew budget bounds
   only the eocc fast path's clocks (every other engine's are exact),
   and GeoG-A's gossip re-applies whole rows, so it has no column-level
   merge. *)
let with_engine engine =
  let validate engine clock_skew merge_level =
    let pinned = Option.map (fun (_, f) -> f Geogauss.Params.default) engine in
    let is f = Option.fold ~none:false ~some:f pinned in
    if clock_skew <> None && not (is (fun p -> p.Geogauss.Params.fastpath))
    then `Error (true, "--clock-skew needs --engine eocc")
    else if
      merge_level = Geogauss.Params.Column
      && is (fun p -> p.Geogauss.Params.variant = Geogauss.Params.Async_merge)
    then
      `Error
        (true, "--merge-level column cannot run under --engine geog-a, whose \
                gossip re-applies whole rows")
    else `Ok (engine, clock_skew, merge_level)
  in
  Term.(ret (const validate $ engine $ clock_skew_arg $ merge_level_arg))

(* Numbers outside what the simulation accepts are rejected at parse
   time, not by an exception from deep inside a run. *)
let bounded of_string ok ~expected pp =
  let parse s =
    match of_string s with
    | Some v when ok v -> Ok v
    | _ -> Error (`Msg (Printf.sprintf "expected %s, got %S" expected s))
  in
  Arg.conv (parse, pp)

let positive_int =
  bounded int_of_string_opt (fun n -> n > 0) ~expected:"a positive integer"
    Format.pp_print_int

(* --- `run` subcommand: ad-hoc simulation --- *)

let run_cmd =
  let workload =
    Arg.(
      value
      & opt
          (enum
             [ ("ycsb-ro", `Ro); ("ycsb-mc", `Mc); ("ycsb-hc", `Hc);
               ("tpcc", `Tpcc); ("tpcc-full", `Tpcc_full);
               ("hotkey", `Hotkey); ("social", `Social); ("scan", `Scan);
               ("secidx", `Secidx) ])
          `Mc
      & info [ "w"; "workload" ]
          ~doc:"Workload: ycsb-ro, ycsb-mc, ycsb-hc, tpcc (50/50 NO+Payment), \
                tpcc-full (standard five-transaction mix), hotkey (rotating \
                hot-key counter bursts), social (power-law fanout \
                read-modify-write), scan (SQL long scans + aggregates) or \
                secidx (SQL secondary-index reads with region flips).")
  in
  let nodes =
    Arg.(
      value & opt positive_int 3
      & info [ "n"; "nodes" ] ~doc:"Number of replicas (at least 1).")
  in
  let world =
    Arg.(value & flag & info [ "worldwide" ] ~doc:"Worldwide 5-DC topology instead of China.")
  in
  let epoch_ms =
    Arg.(
      value & opt positive_int 10
      & info [ "epoch-ms" ] ~doc:"Epoch length (ms, at least 1).")
  in
  let isolation =
    Arg.(
      value
      & opt isolation_conv Geogauss.Params.RC
      & info [ "isolation" ] ~doc:"Isolation level: rc, rr, si or ssi (extension).")
  in
  let engine =
    Arg.(
      value
      & opt (some core_engine_conv) None
      & info [ "engine" ]
          ~doc:
            "Engine by registry name (geogauss, geog-s, geog-a, eocc; \
             default geogauss). eocc enables the clock-assisted \
             speculative fast path (pair with --clock-skew).")
  in
  let ft =
    Arg.(
      value
      & opt ft_conv Geogauss.Params.Ft_local_backup
      & info [ "ft" ] ~doc:"Fault tolerance: none, lb, rb or raft.")
  in
  let seconds =
    Arg.(value & opt int 4 & info [ "t"; "seconds" ] ~doc:"Measured simulated seconds.")
  in
  let connections =
    Arg.(value & opt int 64 & info [ "c"; "connections" ] ~doc:"Client connections per node.")
  in
  let theta =
    let skew =
      bounded float_of_string_opt
        (fun t -> t >= 0.0 && t < 1.0)
        ~expected:"a skew in [0, 1)" Format.pp_print_float
    in
    Arg.(value & opt skew 0.8 & info [ "theta" ] ~doc:"YCSB Zipf skew (0 <= theta < 1).")
  in
  let records =
    Arg.(
      value & opt positive_int 50_000
      & info [ "records" ] ~doc:"YCSB table size (at least 1).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Simulation seed.") in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Write a JSONL event trace + counter snapshots of the \
                measurement window to $(docv) (replay with `geogauss trace').")
  in
  let run workload nodes world epoch_ms isolation
      (engine, clock_skew, merge_level) ft seconds connections theta records
      seed trace =
    let topology =
      if world then Gg_sim.Topology.worldwide nodes else Gg_sim.Topology.china nodes
    in
    let params =
      {
        Geogauss.Params.default with
        Geogauss.Params.epoch_us = epoch_ms * 1_000;
        isolation;
        ft;
        seed;
        merge_level;
      }
    in
    (* --clock-skew sets the budget after --engine's transform, which is
       what turns the fast path on. *)
    let params =
      match engine with None -> params | Some (_, f) -> f params
    in
    let params =
      match clock_skew with
      | None -> params
      | Some ms -> Geogauss.Params.with_clock_skew_us params (ms * 1_000)
    in
    let label =
      match engine with
      | Some (name, _) -> name
      | None -> Geogauss.Params.(variant_to_string params.variant)
    in
    let gens, load =
      match workload with
      | (`Tpcc | `Tpcc_full) as w ->
        let cfg = Gg_workload.Tpcc.default in
        let full_mix = w = `Tpcc_full in
        let gen node =
          let g =
            Gg_workload.Tpcc.create ~full_mix cfg ~seed:(seed + (1_000 * node))
              ~node
          in
          fun () -> Gg_workload.Tpcc.next_txn g
        in
        (`Op gen, Gg_workload.Tpcc.load cfg)
      | (`Ro | `Mc | `Hc) as w ->
        let base =
          match w with
          | `Ro -> Gg_workload.Ycsb.read_only
          | `Mc -> Gg_workload.Ycsb.medium_contention
          | `Hc -> Gg_workload.Ycsb.high_contention
        in
        let p =
          Gg_workload.Ycsb.with_theta
            (Gg_workload.Ycsb.with_records base records)
            (if base.Gg_workload.Ycsb.theta = 0.0 then 0.0 else theta)
        in
        (`Op (Gg_harness.Driver.ycsb_gens p ~seed), Gg_workload.Ycsb.load p)
      | `Hotkey ->
        let p = Gg_workload.Hotkey.with_records Gg_workload.Hotkey.base records in
        (`Op (Gg_harness.Driver.hotkey_gens p ~seed), Gg_workload.Hotkey.load p)
      | `Social ->
        let p = Gg_workload.Social.with_users Gg_workload.Social.base records in
        (`Op (Gg_harness.Driver.social_gens p ~seed), Gg_workload.Social.load p)
      | `Scan ->
        let p =
          Gg_workload.Sqlgen.Scan.with_records Gg_workload.Sqlgen.Scan.base
            records
        in
        ( `Req (Gg_harness.Driver.scan_req_gens p ~seed),
          Gg_workload.Sqlgen.Scan.load p )
      | `Secidx ->
        let p =
          Gg_workload.Sqlgen.Secidx.with_records Gg_workload.Sqlgen.Secidx.base
            records
        in
        ( `Req (Gg_harness.Driver.secidx_req_gens p ~seed),
          Gg_workload.Sqlgen.Secidx.load p )
    in
    (* [~gen] is only consulted when no request-level generator is given,
       so the [`Req] arm's placeholder can never run. *)
    let gen, req_gen =
      match gens with
      | `Op gen -> (gen, None)
      | `Req rg -> ((fun _ () -> assert false), Some rg)
    in
    let r, extra =
      Gg_harness.Driver.run_geogauss ~params ~connections ?req_gen
        ?trace_file:trace ~topology ~load ~gen ~warmup_ms:1_000
        ~measure_ms:(seconds * 1_000)
        ~label ()
    in
    let table =
      Gg_util.Tablefmt.create
        ~title:
          (Printf.sprintf "%s on %s (%d replicas, epoch %d ms, %s, ft=%s)"
             label topology.Gg_sim.Topology.name nodes epoch_ms
             (Geogauss.Params.isolation_to_string isolation)
             (Geogauss.Params.ft_to_string ft))
        ~headers:Gg_harness.Result.headers
    in
    Gg_util.Tablefmt.add_row table (Gg_harness.Result.row r);
    Gg_util.Tablefmt.print table;
    (match extra.Gg_harness.Driver.phase_means with
    | (_, (p, e, w, m, l)) :: _ ->
      Printf.printf
        "node0 phase means (ms): parse %.2f  exec %.2f  wait %.2f  merge %.2f  log %.2f\n"
        (p /. 1000.) (e /. 1000.) (w /. 1000.) (m /. 1000.) (l /. 1000.)
    | [] -> ());
    (match trace with
    | Some path -> Printf.printf "trace written to %s\n" path
    | None -> ())
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run an ad-hoc GeoGauss cluster simulation.")
    Term.(
      const run $ workload $ nodes $ world $ epoch_ms $ isolation
      $ with_engine engine $ ft $ seconds $ connections $ theta $ records
      $ seed $ trace)

(* --- `check` subcommand: seeded chaos checking --- *)

let check_cmd =
  let seeds =
    Arg.(
      value & opt int 25
      & info [ "seeds" ] ~doc:"Number of seeded scenarios to run.")
  in
  let base =
    Arg.(
      value & opt int 0
      & info [ "base" ] ~doc:"First seed (scenarios are base..base+seeds-1).")
  in
  let engine =
    Arg.(
      value
      & opt (some core_engine_conv) None
      & info [ "engine" ]
          ~doc:"Pin the engine by registry name (geogauss, geog-s, geog-a, \
                eocc); default draws the variant per seed. eocc pins the \
                clock-assisted fast path with the --clock-skew budget and \
                skew-burst fault schedules.")
  in
  let ft =
    Arg.(
      value
      & opt (some ft_conv) None
      & info [ "ft" ] ~doc:"Pin the fault-tolerance mode (none, lb, rb, raft).")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"On failure, re-run the minimized scenario with tracing on \
                and write a JSONL trace to $(docv).")
  in
  let canary =
    Arg.(
      value & flag
      & info [ "canary" ]
          ~doc:"Self-test: inject a deliberate replica corruption and verify \
                the oracles detect it (exits non-zero if they do not).")
  in
  let corrupt =
    let probability =
      bounded float_of_string_opt
        (fun f -> f >= 0.0 && f <= 1.0)
        ~expected:"a probability in [0, 1]" Format.pp_print_float
    in
    Arg.(
      value & opt probability 0.0
      & info [ "corrupt" ] ~docv:"FRAC"
          ~doc:
            "Pin a binary-frame corruption probability on every scenario: \
             each batch frame is truncated in flight with probability \
             $(docv); decode failures must be recovered by the stall-repair \
             path under the same oracles.")
  in
  let isolation =
    Arg.(
      value
      & opt (some isolation_conv) None
      & info [ "isolation" ]
          ~doc:"Pin the isolation level (rc, rr, si, ssi); default draws it \
                per seed.")
  in
  (* A check that ran and failed exits 1, apart from cmdliner's 124 for
     a usage error. *)
  let failed msg =
    Printf.eprintf "geogauss: %s\n" msg;
    exit 1
  in
  let run seeds base (engine, clock_skew, merge_level) isolation ft fast jobs
      trace canary corrupt =
    let log = print_endline in
    (* Resolve the registry name through its own transform: the pinned
       variant and the fastpath flag both come from what the transform
       does to default params, so check stays in lockstep with the
       registry's one canonical list. *)
    let pinned =
      Option.map (fun (_, f) -> f Geogauss.Params.default) engine
    in
    let variant = Option.map (fun p -> p.Geogauss.Params.variant) pinned in
    let fastpath =
      match pinned with Some p -> p.Geogauss.Params.fastpath | None -> false
    in
    let clock_skew_ms = Option.value ~default:5 clock_skew in
    if canary then begin
      let s =
        {
          (Gg_check.Scenario.generate ~variant:Geogauss.Params.Optimistic
             ~fast:true base)
          with
          Gg_check.Scenario.faults = [];
          corruption = Some (1, 400);
        }
      in
      log (Printf.sprintf "canary: %s" (Gg_check.Scenario.to_string s));
      match (Gg_check.Checker.run s).Gg_check.Checker.violation with
      | None -> failed "canary corruption went undetected"
      | Some v ->
        let f = Gg_check.Checker.shrink_and_report ~log s v in
        log
          (Printf.sprintf "canary detected: %s"
             (Gg_check.Checker.reproducer f.Gg_check.Checker.minimized
                f.Gg_check.Checker.min_violation));
        `Ok ()
    end
    else begin
      let report =
        Gg_par.Pool.with_pool ~jobs @@ fun pool ->
        Gg_check.Checker.check ~log ?variant ?isolation ?ft ~fast ~base ~pool
          ~corrupt_frac:corrupt ~merge_level ~fastpath
          ~clock_skew_ms ~seeds ()
      in
      Printf.printf "%d seeds, %d commits, %d violation(s)\n"
        report.Gg_check.Checker.seeds_run
        report.Gg_check.Checker.total_commits
        (List.length report.Gg_check.Checker.failures);
      match report.Gg_check.Checker.failures with
      | [] -> `Ok ()
      | f :: _ ->
        (match trace with
        | Some path ->
          ignore
            (Gg_check.Checker.run ~trace:path f.Gg_check.Checker.minimized);
          Printf.printf "trace of minimized scenario written to %s\n" path
        | None -> ());
        failed "invariant violations found"
    end
  in
  Cmd.v
    (Cmd.info "check"
       ~exits:
         (Cmd.Exit.info 1
            ~doc:"on invariant violations, or when the $(b,--canary) \
                  corruption goes undetected."
         :: Cmd.Exit.defaults)
       ~doc:
         "Deterministic chaos checking: run seeded fault scenarios (crashes, \
          recoveries, loss/dup/reorder/jitter bursts) against full cluster \
          simulations with per-epoch invariant oracles — convergence, \
          monotonicity, durability, ACI merge laws, isolation — and shrink \
          any failure to a one-line reproducer.")
    Term.(
      ret
        (const run $ seeds $ base $ with_engine engine $ isolation $ ft
       $ fast_arg $ jobs_arg $ trace $ canary $ corrupt))

(* --- `trace` subcommand: analyze an exported JSONL trace --- *)

let trace_file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"TRACE.jsonl"
        ~doc:"Trace file written by `geogauss run --trace'.")

let trace_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Also write the machine-readable JSON report to $(docv).")

(* Load a trace, print a rendered report, optionally dump the JSON form.
   Both outputs are byte-deterministic functions of the trace file. *)
let trace_report ~render ~json file json_out =
  match Gg_obs.Trace_view.load_file file with
  | Error msg -> `Error (false, Printf.sprintf "%s: %s" file msg)
  | Ok t ->
    print_string (render t);
    print_newline ();
    (match json_out with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      Gg_obs.Jsonl.write_line oc (json t);
      close_out oc;
      Printf.printf "json report written to %s\n" path);
    `Ok ()

let trace_summary_term =
  let epochs =
    Arg.(
      value & opt int 40
      & info [ "epochs" ] ~doc:"Max epoch-timeline rows to print.")
  in
  let top =
    Arg.(
      value & opt int 5
      & info [ "top" ] ~doc:"Slowest epochs to drill into.")
  in
  let run file epochs top =
    match Gg_obs.Trace_view.load_file file with
    | Error msg -> `Error (false, Printf.sprintf "%s: %s" file msg)
    | Ok t ->
      print_string (Gg_obs.Trace_view.render_report ~epoch_limit:epochs ~top t);
      print_newline ();
      `Ok ()
  in
  Term.(ret (const run $ trace_file_arg $ epochs $ top))

let trace_critical_path_cmd =
  let run file json_out =
    trace_report ~render:Gg_obs.Trace_view.render_critical_path
      ~json:Gg_obs.Trace_view.critical_path_json file json_out
  in
  Cmd.v
    (Cmd.info "critical-path"
       ~doc:
         "Reconstruct each committed transaction's cross-node causal chain \
          and attribute its end-to-end latency to Algorithm 1 phases \
          (execute, seal wait, WAN hop, merge wait, spec wait, confirm \
          wait, validate, commit — the spec/confirm pair replaces \
          wan/merge-wait on confirmed fast-path epochs). The eight phases \
          sum exactly to the commit latency.")
    Term.(ret (const run $ trace_file_arg $ trace_json_arg))

let trace_wan_cmd =
  let run file json_out =
    trace_report ~render:Gg_obs.Trace_view.render_wan
      ~json:Gg_obs.Trace_view.wan_json file json_out
  in
  Cmd.v
    (Cmd.info "wan"
       ~doc:
         "Per-region-pair WAN traffic for the measurement window: bytes per \
          directed region pair and bytes per committed transaction.")
    Term.(ret (const run $ trace_file_arg $ trace_json_arg))

let trace_cmd =
  Cmd.group ~default:trace_summary_term
    (Cmd.info "trace"
       ~doc:
         "Analyze a JSONL trace: epoch timelines, per-phase latency \
          breakdowns, slowest-epoch drill-downs, cross-node skew, causal \
          critical paths and WAN accounting.")
    [ trace_critical_path_cmd; trace_wan_cmd ]

let main =
  Cmd.group
    (Cmd.info "geogauss" ~version:"1.0.0"
       ~doc:"GeoGauss: strongly consistent, light-coordinated geo-replicated \
             OLTP (simulated reproduction of SIGMOD'23).")
    [ run_cmd; check_cmd; trace_cmd ]

let () = exit (Cmd.eval main)
