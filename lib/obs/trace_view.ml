module Tablefmt = Gg_util.Tablefmt

type t = {
  meta : Jsonl.t;
  events : Obs.Trace.event list;
  snapshots : (int * (string * int) list) list;
}

let f = Tablefmt.fmt_f

(* --- loading --- *)

let event_of_json j =
  {
    Obs.Trace.at = Jsonl.to_int (Jsonl.member "at" j);
    node = Jsonl.to_int ~default:(-1) (Jsonl.member "node" j);
    cat = Jsonl.to_str (Jsonl.member "cat" j);
    name = Jsonl.to_str (Jsonl.member "name" j);
    epoch = Jsonl.to_int ~default:(-1) (Jsonl.member "epoch" j);
    span = Jsonl.to_int ~default:(-1) (Jsonl.member "span" j);
    parent = Jsonl.to_int ~default:(-1) (Jsonl.member "parent" j);
    dur = Jsonl.to_int ~default:(-1) (Jsonl.member "dur" j);
    detail = Jsonl.to_str (Jsonl.member "detail" j);
  }

let snapshot_of_json j =
  let at = Jsonl.to_int (Jsonl.member "at" j) in
  let counters =
    match Jsonl.member "counters" j with
    | Some (Jsonl.Obj fields) ->
      List.map (fun (k, v) -> (k, Jsonl.to_int (Some v))) fields
    | _ -> []
  in
  (at, counters)

let of_lines lines =
  let meta = ref (Jsonl.Obj []) in
  let events = ref [] in
  let snapshots = ref [] in
  let bad = ref None in
  List.iteri
    (fun i line ->
      if !bad = None && String.trim line <> "" then
        match Jsonl.parse line with
        | Error msg -> bad := Some (Printf.sprintf "line %d: %s" (i + 1) msg)
        | Ok j -> (
          match Jsonl.to_str (Jsonl.member "type" j) with
          | "meta" -> meta := j
          | "event" -> events := event_of_json j :: !events
          | "snapshot" -> snapshots := snapshot_of_json j :: !snapshots
          | other ->
            bad :=
              Some (Printf.sprintf "line %d: unknown record type %S" (i + 1) other)))
    lines;
  match !bad with
  | Some msg -> Error msg
  | None ->
    Ok
      {
        meta = !meta;
        events = List.rev !events;
        snapshots = List.rev !snapshots;
      }

let load_file path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
    let lines = ref [] in
    (try
       while true do
         lines := input_line ic :: !lines
       done
     with End_of_file -> ());
    close_in ic;
    of_lines (List.rev !lines)

(* --- per-phase breakdown (Algorithm 1 / Table 2) --- *)

type phase_row = {
  pr_node : int;
  pr_txns : int;
  pr_parse_ms : float;
  pr_exec_ms : float;
  pr_wait_ms : float;
  pr_merge_ms : float;
  pr_log_ms : float;
}

let phase_breakdown t =
  (* node -> (txns, sums per phase in us) *)
  let tbl : (int, int ref * float array) Hashtbl.t = Hashtbl.create 8 in
  let cell node =
    match Hashtbl.find_opt tbl node with
    | Some c -> c
    | None ->
      let c = (ref 0, Array.make 5 0.0) in
      Hashtbl.replace tbl node c;
      c
  in
  let phase_idx = function
    | "phase.parse" -> Some 0
    | "phase.exec" -> Some 1
    | "phase.wait" -> Some 2
    | "phase.merge" -> Some 3
    | "phase.log" -> Some 4
    | _ -> None
  in
  List.iter
    (fun (e : Obs.Trace.event) ->
      if e.Obs.Trace.cat = "txn" then
        if e.Obs.Trace.name = "commit" then incr (fst (cell e.Obs.Trace.node))
        else
          match phase_idx e.Obs.Trace.name with
          | Some i ->
            let _, sums = cell e.Obs.Trace.node in
            sums.(i) <- sums.(i) +. float_of_int (max 0 e.Obs.Trace.dur)
          | None -> ())
    t.events;
  Hashtbl.fold (fun node (n, sums) acc -> (node, !n, sums) :: acc) tbl []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  |> List.map (fun (node, n, sums) ->
         let mean i =
           if n = 0 then 0.0 else sums.(i) /. float_of_int n /. 1000.0
         in
         {
           pr_node = node;
           pr_txns = n;
           pr_parse_ms = mean 0;
           pr_exec_ms = mean 1;
           pr_wait_ms = mean 2;
           pr_merge_ms = mean 3;
           pr_log_ms = mean 4;
         })

(* --- epoch timeline (Fig 6 / Fig 8 style) --- *)

type epoch_row = {
  er_epoch : int;
  er_seal_at : int;  (* earliest seal across nodes, -1 if unobserved *)
  er_merge_nodes : int;  (* nodes whose merge.commit was observed *)
  er_merge_max_us : int;  (* slowest merge duration *)
  er_skew_us : int;  (* spread of merge.commit instants across nodes *)
  er_commits : int;
  er_aborts : int;
  er_lat_mean_ms : float;  (* mean committed latency *)
}

type epoch_cell = {
  mutable c_seal_at : int;
  mutable c_merge_ats : (int * int) list;  (* (node, at) newest first *)
  mutable c_merge_max : int;
  mutable c_commits : int;
  mutable c_aborts : int;
  mutable c_lat_sum : float;
}

let epoch_rows t =
  let tbl : (int, epoch_cell) Hashtbl.t = Hashtbl.create 64 in
  let cell e =
    match Hashtbl.find_opt tbl e with
    | Some c -> c
    | None ->
      let c =
        {
          c_seal_at = -1;
          c_merge_ats = [];
          c_merge_max = 0;
          c_commits = 0;
          c_aborts = 0;
          c_lat_sum = 0.0;
        }
      in
      Hashtbl.replace tbl e c;
      c
  in
  List.iter
    (fun (e : Obs.Trace.event) ->
      let ep = e.Obs.Trace.epoch in
      if ep >= 0 then
        match (e.Obs.Trace.cat, e.Obs.Trace.name) with
        | "epoch", "seal" ->
          let c = cell ep in
          if c.c_seal_at < 0 || e.Obs.Trace.at < c.c_seal_at then
            c.c_seal_at <- e.Obs.Trace.at
        | "epoch", "merge.commit" ->
          let c = cell ep in
          c.c_merge_ats <- (e.Obs.Trace.node, e.Obs.Trace.at) :: c.c_merge_ats;
          if e.Obs.Trace.dur > c.c_merge_max then c.c_merge_max <- e.Obs.Trace.dur
        | "txn", "commit" ->
          let c = cell ep in
          c.c_commits <- c.c_commits + 1;
          c.c_lat_sum <- c.c_lat_sum +. float_of_int (max 0 e.Obs.Trace.dur)
        | "txn", "abort" ->
          let c = cell ep in
          c.c_aborts <- c.c_aborts + 1
        | _ -> ())
    t.events;
  Hashtbl.fold (fun ep c acc -> (ep, c) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map (fun (ep, c) ->
         let skew =
           match c.c_merge_ats with
           | [] | [ _ ] -> 0
           | ats ->
             let ts = List.map snd ats in
             List.fold_left max min_int ts - List.fold_left min max_int ts
         in
         {
           er_epoch = ep;
           er_seal_at = c.c_seal_at;
           er_merge_nodes = List.length c.c_merge_ats;
           er_merge_max_us = c.c_merge_max;
           er_skew_us = skew;
           er_commits = c.c_commits;
           er_aborts = c.c_aborts;
           er_lat_mean_ms =
             (if c.c_commits = 0 then 0.0
              else c.c_lat_sum /. float_of_int c.c_commits /. 1000.0);
         })

let slowest_epochs t ~top =
  epoch_rows t
  |> List.sort (fun a b -> compare b.er_merge_max_us a.er_merge_max_us)
  |> List.filteri (fun i _ -> i < top)

let skew_stats t =
  let skews =
    epoch_rows t
    |> List.filter (fun r -> r.er_merge_nodes >= 2)
    |> List.map (fun r -> r.er_skew_us)
  in
  match skews with
  | [] -> (0.0, 0)
  | _ ->
    let sum = List.fold_left ( + ) 0 skews in
    ( float_of_int sum /. float_of_int (List.length skews),
      List.fold_left max 0 skews )

let epoch_events t ep =
  List.filter (fun (e : Obs.Trace.event) -> e.Obs.Trace.epoch = ep) t.events

(* --- causal DAG: span resolution --- *)

(* Node -> region name, from the meta record's [regions] list ([||] for
   traces written before the field existed). *)
let meta_regions t =
  match Jsonl.member "regions" t.meta with
  | Some (Jsonl.List l) ->
    Array.of_list
      (List.map (function Jsonl.Str s -> s | _ -> "?") l)
  | _ -> [||]

let region_of_node regions node =
  if node >= 0 && node < Array.length regions then regions.(node) else "?"

(* Receive-side events name their causal parent by span id; a parent is
   unresolved when no event in the file carries that span (the sender's
   event predates the measurement window, or the ring buffer wrapped).
   Returns (events_with_parent, unresolved). *)
let unresolved_parents t =
  let spans = Hashtbl.create 4096 in
  List.iter
    (fun (e : Obs.Trace.event) ->
      if e.Obs.Trace.span > 0 then Hashtbl.replace spans e.Obs.Trace.span ())
    t.events;
  List.fold_left
    (fun (total, unresolved) (e : Obs.Trace.event) ->
      if e.Obs.Trace.parent > 0 then
        ( total + 1,
          if Hashtbl.mem spans e.Obs.Trace.parent then unresolved
          else unresolved + 1 )
      else (total, unresolved))
    (0, 0) t.events

(* --- critical-path latency attribution --- *)

(* Per committed transaction, the end-to-end latency T4-T0 is cut at the
   causally ordered instants of Algorithm 1:

     T0 submit (= commit.at - commit.dur)
     T1 commit point        -> execute    = T1 - T0
     s  own epoch sealed    -> seal_wait  = s - T1
     r  last peer EOF here  -> wan        = r - s      (binding WAN hop)
     T2 merge started       -> merge_wait = T2 - r
     T3 merge committed     -> validate   = T3 - T2
     T4 client notified     -> commit     = T4 - T3

   s and r are clamped into [T1, T2] (a peer's EOF can land before this
   transaction's commit point; the seal can only happen after it), so
   the chain is monotone and the phases telescope to exactly T4-T0
   for every sampled transaction — the invariant the tests pin. The
   binding WAN hop is the batch.recv with the largest (at, sender); its
   sender decodes from the parent span's node bits.

   Under the clock-assisted fast path (eocc, DESIGN.md §14) a confirmed
   speculative epoch replaces the wan/merge_wait cut with a spec/confirm
   cut at the instants its merge span records:

     S  speculative seal     -> spec_wait    = S - s   (watermark wait)
     C  confirm point        -> confirm_wait = C - S  (straggler overlap)
     T3 merge committed      -> validate     = T3 - C (residual charge)

   wan and merge_wait are 0 for those transactions (the WAN tail is
   exactly what the speculation overlapped — it shows up as
   confirm_wait), and the eight phases still telescope to T4-T0.
   Mispredicted epochs re-merge under a fresh span with no spec/confirm
   events, so they fall through to the classic six-phase cut. *)

type cp_txn = {
  cp_node : int;
  cp_span : int;
  cp_epoch : int;
  cp_submit_at : int;
  cp_latency_us : int;
  cp_execute : int;
  cp_seal_wait : int;
  cp_wan : int;
  cp_merge_wait : int;
  cp_spec_wait : int;  (* fast path: seal -> speculative merge start *)
  cp_confirm_wait : int;  (* fast path: speculative start -> confirm *)
  cp_validate : int;
  cp_commit : int;
  cp_wan_from : int;  (* binding sender node, -1 when no WAN hop bound *)
  cp_wan_pair : string;  (* "SenderRegion>MyRegion", "" when none *)
}

type cp_report = {
  cpr_txns : cp_txn list;  (* sorted by (submit_at, node, span) *)
  cpr_committed : int;  (* commit events seen in the trace *)
  cpr_parent_events : int;
  cpr_unresolved : int;
}

let critical_path t =
  let regions = meta_regions t in
  let seal_at = Hashtbl.create 256 in (* (node, epoch) -> at *)
  let recvs = Hashtbl.create 256 in (* (node, epoch) -> (at, parent) list *)
  let m_start = Hashtbl.create 256 in (* merge span -> at *)
  let m_commit = Hashtbl.create 256 in
  let spec_at = Hashtbl.create 64 in (* merge span -> speculative seal at *)
  let confirm_at = Hashtbl.create 64 in (* merge span -> confirm at *)
  let cpoint = Hashtbl.create 4096 in (* txn span -> at *)
  let committed = ref 0 in
  List.iter
    (fun (e : Obs.Trace.event) ->
      let key = (e.Obs.Trace.node, e.Obs.Trace.epoch) in
      match (e.Obs.Trace.cat, e.Obs.Trace.name) with
      | "epoch", "seal" -> Hashtbl.replace seal_at key e.Obs.Trace.at
      | "epoch", "batch.recv" ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt recvs key) in
        Hashtbl.replace recvs key
          ((e.Obs.Trace.at, e.Obs.Trace.parent) :: prev)
      | "epoch", "merge.start" when e.Obs.Trace.span > 0 ->
        Hashtbl.replace m_start e.Obs.Trace.span e.Obs.Trace.at
      | "epoch", "merge.commit" when e.Obs.Trace.span > 0 ->
        Hashtbl.replace m_commit e.Obs.Trace.span e.Obs.Trace.at
      | "epoch", "merge.spec" when e.Obs.Trace.span > 0 ->
        Hashtbl.replace spec_at e.Obs.Trace.span e.Obs.Trace.at
      | "epoch", "merge.confirm" when e.Obs.Trace.span > 0 ->
        Hashtbl.replace confirm_at e.Obs.Trace.span e.Obs.Trace.at
      | "txn", "commit.point" when e.Obs.Trace.span > 0 ->
        Hashtbl.replace cpoint e.Obs.Trace.span e.Obs.Trace.at
      | "txn", "commit" -> incr committed
      | _ -> ())
    t.events;
  let clamp lo hi v = max lo (min hi v) in
  let sample (e : Obs.Trace.event) =
    (* Committed write transactions with full lineage only: epoch-less
       (read-only) commits have no dissemination to attribute, and
       GeoG-A commits carry no merge span. *)
    if
      e.Obs.Trace.cat <> "txn"
      || e.Obs.Trace.name <> "commit"
      || e.Obs.Trace.epoch < 0
      || e.Obs.Trace.span <= 0
      || e.Obs.Trace.parent <= 0
      || e.Obs.Trace.dur < 0
    then None
    else
      let key = (e.Obs.Trace.node, e.Obs.Trace.epoch) in
      match
        ( Hashtbl.find_opt cpoint e.Obs.Trace.span,
          Hashtbl.find_opt seal_at key,
          Hashtbl.find_opt m_start e.Obs.Trace.parent,
          Hashtbl.find_opt m_commit e.Obs.Trace.parent )
      with
      | Some t1, Some seal, Some t2, Some t3 -> (
        let t4 = e.Obs.Trace.at in
        let t0 = t4 - e.Obs.Trace.dur in
        match
          ( Hashtbl.find_opt spec_at e.Obs.Trace.parent,
            Hashtbl.find_opt confirm_at e.Obs.Trace.parent )
        with
        | Some sp, Some c ->
          (* Confirmed speculative epoch: cut at seal -> spec -> confirm
             instead of wan/merge_wait (both 0 here — the WAN tail is
             the confirm_wait the speculation overlapped). Clamps keep
             the chain monotone so the eight phases telescope. *)
          let s = clamp t1 t3 seal in
          let sp = clamp s t3 sp in
          let c = clamp sp t3 c in
          Some
            {
              cp_node = e.Obs.Trace.node;
              cp_span = e.Obs.Trace.span;
              cp_epoch = e.Obs.Trace.epoch;
              cp_submit_at = t0;
              cp_latency_us = e.Obs.Trace.dur;
              cp_execute = t1 - t0;
              cp_seal_wait = s - t1;
              cp_wan = 0;
              cp_merge_wait = 0;
              cp_spec_wait = sp - s;
              cp_confirm_wait = c - sp;
              cp_validate = t3 - c;
              cp_commit = t4 - t3;
              cp_wan_from = -1;
              cp_wan_pair = "";
            }
        | _ ->
        let binding =
          List.fold_left
            (fun best (at, parent) ->
              let sender = if parent > 0 then Obs.span_node parent else -1 in
              match best with
              | Some (ba, bs) when (ba, bs) >= (at, sender) -> best
              | _ -> Some (at, sender))
            None
            (Option.value ~default:[] (Hashtbl.find_opt recvs key))
        in
        let last_recv, sender =
          match binding with Some (at, s) -> (at, s) | None -> (min_int, -1)
        in
        let ready = clamp t1 t2 (max seal last_recv) in
        let s = clamp t1 ready seal in
        let wan = ready - s in
        Some
          {
            cp_node = e.Obs.Trace.node;
            cp_span = e.Obs.Trace.span;
            cp_epoch = e.Obs.Trace.epoch;
            cp_submit_at = t0;
            cp_latency_us = e.Obs.Trace.dur;
            cp_execute = t1 - t0;
            cp_seal_wait = s - t1;
            cp_wan = wan;
            cp_merge_wait = t2 - ready;
            cp_spec_wait = 0;
            cp_confirm_wait = 0;
            cp_validate = t3 - t2;
            cp_commit = t4 - t3;
            cp_wan_from = (if wan > 0 then sender else -1);
            cp_wan_pair =
              (if wan > 0 && sender >= 0 then
                 Printf.sprintf "%s>%s"
                   (region_of_node regions sender)
                   (region_of_node regions e.Obs.Trace.node)
               else "");
          })
      | _ -> None
  in
  let txns =
    List.filter_map sample t.events
    |> List.sort (fun a b ->
           compare
             (a.cp_submit_at, a.cp_node, a.cp_span)
             (b.cp_submit_at, b.cp_node, b.cp_span))
  in
  let parent_events, unresolved = unresolved_parents t in
  {
    cpr_txns = txns;
    cpr_committed = !committed;
    cpr_parent_events = parent_events;
    cpr_unresolved = unresolved;
  }

(* --- per-region-pair WAN accounting (fig 11 currency) --- *)

type wan_report = {
  wr_pairs : (string * int) list;  (* "A>B" -> bytes, registry order *)
  wr_total_bytes : int;
  wr_commits : int;
}

let wan_pair_prefix = "net.wan.bytes."

let wan_report t =
  (* The driver appends a closing counter snapshot at the window end;
     the last snapshot therefore carries the final per-pair totals. *)
  let counters =
    match List.rev t.snapshots with [] -> [] | (_, cs) :: _ -> cs
  in
  let plen = String.length wan_pair_prefix in
  let pairs =
    List.filter_map
      (fun (name, v) ->
        if
          String.length name > plen
          && String.sub name 0 plen = wan_pair_prefix
          && String.contains name '>'
        then Some (String.sub name plen (String.length name - plen), v)
        else None)
      counters
  in
  let total =
    match List.assoc_opt "net.wan.bytes" counters with
    | Some v -> v
    | None -> List.fold_left (fun a (_, v) -> a + v) 0 pairs
  in
  let commits =
    List.fold_left
      (fun a (e : Obs.Trace.event) ->
        if e.Obs.Trace.cat = "txn" && e.Obs.Trace.name = "commit" then a + 1
        else a)
      0 t.events
  in
  { wr_pairs = pairs; wr_total_bytes = total; wr_commits = commits }

(* --- rendering --- *)

let meta_line t =
  let m k = Jsonl.member k t.meta in
  Printf.sprintf
    "trace: label=%s nodes=%d epoch_us=%d seed=%d events=%d (dropped %d) \
     snapshots=%d"
    (Jsonl.to_str ~default:"?" (m "label"))
    (Jsonl.to_int (m "nodes"))
    (Jsonl.to_int (m "epoch_us"))
    (Jsonl.to_int (m "seed"))
    (List.length t.events)
    (Jsonl.to_int (m "dropped"))
    (List.length t.snapshots)

let render_epoch_table ?(limit = 40) t =
  let rows = epoch_rows t in
  let shown = List.filteri (fun i _ -> i < limit) rows in
  let table =
    Tablefmt.create ~title:"Epoch timeline"
      ~headers:
        [
          "epoch"; "sealed @ (s)"; "merges"; "merge max (ms)"; "skew (ms)";
          "commits"; "aborts"; "mean lat (ms)";
        ]
  in
  List.iter
    (fun r ->
      Tablefmt.add_row table
        [
          string_of_int r.er_epoch;
          (if r.er_seal_at < 0 then "-" else f ~dec:3 (float_of_int r.er_seal_at /. 1e6));
          string_of_int r.er_merge_nodes;
          f (float_of_int r.er_merge_max_us /. 1000.0);
          f (float_of_int r.er_skew_us /. 1000.0);
          string_of_int r.er_commits;
          string_of_int r.er_aborts;
          f r.er_lat_mean_ms;
        ])
    shown;
  let rendered = Tablefmt.render table in
  if List.length rows > limit then
    Printf.sprintf "%s\n  ... %d more epochs (use --epochs to widen)\n" rendered
      (List.length rows - limit)
  else rendered ^ "\n"

let render_phase_table t =
  let table =
    Tablefmt.create ~title:"Per-phase latency breakdown (committed txns, ms)"
      ~headers:
        [ "node"; "txns"; "parse"; "exec"; "wait"; "merge"; "log"; "total" ]
  in
  List.iter
    (fun r ->
      let total =
        r.pr_parse_ms +. r.pr_exec_ms +. r.pr_wait_ms +. r.pr_merge_ms
        +. r.pr_log_ms
      in
      Tablefmt.add_row table
        [
          string_of_int r.pr_node;
          string_of_int r.pr_txns;
          f r.pr_parse_ms;
          f r.pr_exec_ms;
          f r.pr_wait_ms;
          f r.pr_merge_ms;
          f r.pr_log_ms;
          f total;
        ])
    (phase_breakdown t);
  Tablefmt.render table ^ "\n"

let render_slowest ?(top = 5) t =
  let table =
    Tablefmt.create
      ~title:(Printf.sprintf "Slowest %d epochs by merge duration" top)
      ~headers:[ "epoch"; "merge max (ms)"; "commits"; "aborts"; "events" ]
  in
  let rows = slowest_epochs t ~top in
  List.iter
    (fun r ->
      Tablefmt.add_row table
        [
          string_of_int r.er_epoch;
          f (float_of_int r.er_merge_max_us /. 1000.0);
          string_of_int r.er_commits;
          string_of_int r.er_aborts;
          string_of_int (List.length (epoch_events t r.er_epoch));
        ])
    rows;
  let drill =
    match rows with
    | [] -> ""
    | worst :: _ ->
      let evs =
        epoch_events t worst.er_epoch
        |> List.filter (fun (e : Obs.Trace.event) -> e.Obs.Trace.cat = "epoch")
        |> List.sort (fun (a : Obs.Trace.event) b ->
               compare (a.Obs.Trace.at, a.Obs.Trace.node) (b.Obs.Trace.at, b.Obs.Trace.node))
      in
      let dt =
        Tablefmt.create
          ~title:(Printf.sprintf "Drill-down: epoch %d" worst.er_epoch)
          ~headers:[ "t (ms)"; "node"; "event"; "dur (ms)"; "detail" ]
      in
      List.iter
        (fun (e : Obs.Trace.event) ->
          Tablefmt.add_row dt
            [
              f (float_of_int e.Obs.Trace.at /. 1000.0);
              string_of_int e.Obs.Trace.node;
              e.Obs.Trace.name;
              (if e.Obs.Trace.dur < 0 then "-"
               else f (float_of_int e.Obs.Trace.dur /. 1000.0));
              e.Obs.Trace.detail;
            ])
        evs;
      Tablefmt.render dt ^ "\n"
  in
  Tablefmt.render table ^ "\n" ^ drill

let render_report ?(epoch_limit = 40) ?(top = 5) t =
  let mean_skew, max_skew = skew_stats t in
  String.concat "\n"
    [
      meta_line t;
      "";
      render_epoch_table ~limit:epoch_limit t;
      render_phase_table t;
      render_slowest ~top t;
      Printf.sprintf
        "cross-node epoch skew (merge.commit spread): mean %.2f ms, max %.2f ms"
        (mean_skew /. 1000.0)
        (float_of_int max_skew /. 1000.0);
    ]

let cp_phase_names =
  [
    "execute"; "seal_wait"; "wan"; "merge_wait"; "spec_wait"; "confirm_wait";
    "validate"; "commit";
  ]

let cp_phase_values c =
  [
    c.cp_execute; c.cp_seal_wait; c.cp_wan; c.cp_merge_wait; c.cp_spec_wait;
    c.cp_confirm_wait; c.cp_validate; c.cp_commit;
  ]

let render_critical_path t =
  let r = critical_path t in
  let by_node = Hashtbl.create 8 in
  List.iter
    (fun c ->
      let n, sums =
        match Hashtbl.find_opt by_node c.cp_node with
        | Some cell -> cell
        | None ->
          let cell = (ref 0, Array.make 9 0.0) in
          Hashtbl.replace by_node c.cp_node cell;
          cell
      in
      incr n;
      List.iteri
        (fun i v -> sums.(i) <- sums.(i) +. float_of_int v)
        (cp_phase_values c);
      sums.(8) <- sums.(8) +. float_of_int c.cp_latency_us)
    r.cpr_txns;
  let table =
    Tablefmt.create
      ~title:"Critical-path attribution (committed write txns, mean ms)"
      ~headers:
        [
          "node"; "txns"; "execute"; "seal wait"; "wan"; "merge wait";
          "spec wait"; "confirm wait"; "validate"; "commit"; "total";
        ]
  in
  Hashtbl.fold (fun node cell acc -> (node, cell) :: acc) by_node []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (node, (n, sums)) ->
         let mean i = sums.(i) /. float_of_int !n /. 1000.0 in
         Tablefmt.add_row table
           (string_of_int node :: string_of_int !n
           :: List.map (fun i -> f (mean i)) [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ]));
  let pair_tbl = Hashtbl.create 8 in
  List.iter
    (fun c ->
      if c.cp_wan_pair <> "" then begin
        let n, sum =
          match Hashtbl.find_opt pair_tbl c.cp_wan_pair with
          | Some cell -> cell
          | None ->
            let cell = (ref 0, ref 0.0) in
            Hashtbl.replace pair_tbl c.cp_wan_pair cell;
            cell
        in
        incr n;
        sum := !sum +. float_of_int c.cp_wan
      end)
    r.cpr_txns;
  let pairs =
    Tablefmt.create ~title:"Binding WAN hop by region pair"
      ~headers:[ "pair"; "txns bound"; "mean wan (ms)" ]
  in
  Hashtbl.fold (fun p cell acc -> (p, cell) :: acc) pair_tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (p, (n, sum)) ->
         Tablefmt.add_row pairs
           [
             p;
             string_of_int !n;
             f (!sum /. float_of_int !n /. 1000.0);
           ]);
  String.concat "\n"
    [
      meta_line t;
      "";
      Tablefmt.render table;
      "";
      Tablefmt.render pairs;
      "";
      Printf.sprintf
        "sampled %d of %d committed txns (full causal lineage required); \
         unresolved parents: %d of %d receive-side events"
        (List.length r.cpr_txns) r.cpr_committed r.cpr_unresolved
        r.cpr_parent_events;
    ]

let critical_path_json t =
  let r = critical_path t in
  let n = List.length r.cpr_txns in
  let sums = Array.make 8 0 in
  List.iter
    (fun c -> List.iteri (fun i v -> sums.(i) <- sums.(i) + v) (cp_phase_values c))
    r.cpr_txns;
  let mean i =
    if n = 0 then 0.0 else float_of_int sums.(i) /. float_of_int n
  in
  Jsonl.Obj
    [
      ("type", Jsonl.Str "critical_path_report");
      ("label", Jsonl.Str (Jsonl.to_str ~default:"?" (Jsonl.member "label" t.meta)));
      ("seed", Jsonl.Int (Jsonl.to_int (Jsonl.member "seed" t.meta)));
      ("nodes", Jsonl.Int (Jsonl.to_int (Jsonl.member "nodes" t.meta)));
      ("txns_committed", Jsonl.Int r.cpr_committed);
      ("txns_sampled", Jsonl.Int n);
      ("parent_events", Jsonl.Int r.cpr_parent_events);
      ("unresolved_parents", Jsonl.Int r.cpr_unresolved);
      ( "phase_mean_us",
        Jsonl.Obj (List.mapi (fun i p -> (p, Jsonl.Float (mean i))) cp_phase_names)
      );
      ( "txns",
        Jsonl.List
          (List.map
             (fun c ->
               Jsonl.Obj
                 [
                   ("node", Jsonl.Int c.cp_node);
                   ("span", Jsonl.Int c.cp_span);
                   ("epoch", Jsonl.Int c.cp_epoch);
                   ("submit_at", Jsonl.Int c.cp_submit_at);
                   ("latency_us", Jsonl.Int c.cp_latency_us);
                   ("execute_us", Jsonl.Int c.cp_execute);
                   ("seal_wait_us", Jsonl.Int c.cp_seal_wait);
                   ("wan_us", Jsonl.Int c.cp_wan);
                   ("merge_wait_us", Jsonl.Int c.cp_merge_wait);
                   ("spec_wait_us", Jsonl.Int c.cp_spec_wait);
                   ("confirm_wait_us", Jsonl.Int c.cp_confirm_wait);
                   ("validate_us", Jsonl.Int c.cp_validate);
                   ("commit_us", Jsonl.Int c.cp_commit);
                   ("wan_from", Jsonl.Int c.cp_wan_from);
                   ("wan_pair", Jsonl.Str c.cp_wan_pair);
                 ])
             r.cpr_txns) );
    ]

let render_wan t =
  let r = wan_report t in
  let table =
    Tablefmt.create ~title:"WAN bytes by region pair (measurement window)"
      ~headers:[ "pair"; "bytes"; "bytes/txn" ]
  in
  List.iter
    (fun (p, b) ->
      Tablefmt.add_row table
        [
          p;
          string_of_int b;
          (if r.wr_commits = 0 then "-"
           else f (float_of_int b /. float_of_int r.wr_commits));
        ])
    r.wr_pairs;
  String.concat "\n"
    [
      meta_line t;
      "";
      Tablefmt.render table;
      "";
      Printf.sprintf "total WAN bytes: %d over %d committed txns (%s bytes/txn)"
        r.wr_total_bytes r.wr_commits
        (if r.wr_commits = 0 then "-"
         else f (float_of_int r.wr_total_bytes /. float_of_int r.wr_commits));
    ]

let wan_json t =
  let r = wan_report t in
  Jsonl.Obj
    [
      ("type", Jsonl.Str "wan_report");
      ("label", Jsonl.Str (Jsonl.to_str ~default:"?" (Jsonl.member "label" t.meta)));
      ("seed", Jsonl.Int (Jsonl.to_int (Jsonl.member "seed" t.meta)));
      ("txns_committed", Jsonl.Int r.wr_commits);
      ("total_wan_bytes", Jsonl.Int r.wr_total_bytes);
      ( "pairs",
        Jsonl.Obj
          (List.map
             (fun (p, b) ->
               ( p,
                 Jsonl.Obj
                   [
                     ("bytes", Jsonl.Int b);
                     ( "bytes_per_txn",
                       Jsonl.Float
                         (if r.wr_commits = 0 then 0.0
                          else float_of_int b /. float_of_int r.wr_commits) );
                   ] ))
             r.wr_pairs) );
    ]
