module Sim = Gg_sim.Sim
module Net = Gg_sim.Net
module Obs = Gg_obs.Obs
module Cpu = Gg_sim.Cpu
module Topology = Gg_sim.Topology
module Clock = Gg_sim.Clock
module Db = Gg_storage.Db
module Table = Gg_storage.Table
module Csn = Gg_storage.Csn
module Row_header = Gg_storage.Row_header
module Writeset = Gg_crdt.Writeset
module Meta = Gg_crdt.Meta
module Executor = Gg_sql.Executor

module Itbl = Epoch_merge.Itbl

type msg =
  | Batch_msg of Writeset.Batch.t
  | Batch_wire of bytes
  | Part_vote of {
      cen : int;
      group : int;
      verdicts : (int * bool) list;  (* (packed csn, validated), sorted *)
      span : int;
    }
  | Ft_ack of { cen : int; from : int; span : int }
  | Ft_commit of { cen : int; origin : int; span : int }
  | State_snapshot of { lsn : int; ckpt : bytes; span : int }

type env = {
  sim : Sim.t;
  net : Net.t;
  params : Params.t;
  part : Partitioning.t;
  backup : Backup.t;
  clock : Clock.t;
  mutable members_at : int -> int list;
  mutable deliver : dst:int -> msg -> unit;
  mutable on_snapshot : node:int -> lsn:int -> unit;
  mutable on_commit : Txn.t -> unit;
}

(* One peer's batch for an epoch, as far as it has arrived. *)
type batch_state = {
  mutable txns : Writeset.t list;  (* newest first, deduplicated by csn *)
  txn_keys : unit Itbl.t;  (* packed csn *)
  mutable eof : bool;
  mutable expected : int;  (* txn count announced by the EOF; -1 until then *)
  mutable committed : bool;  (* the origin's commit arrived, or none is awaited *)
}

(* What the node holds for one epoch it has not merged yet. Only epochs
   past the snapshot (cen > lsn) get a record, and the merge drops it. *)
type epoch = {
  mutable pending : Writeset.t list;  (* local write sets, newest first *)
  mutable sealed : Writeset.t list;  (* [pending] in commit order, at the seal *)
  mutable waiting : Txn.t list;  (* local transactions awaiting the merge *)
  mutable notify_at : int;  (* earliest instant their clients may hear back *)
  peers : batch_state array;  (* by peer id *)
}

type t = {
  id : int;
  env : env;
  obs : Obs.t;
  cpu : Cpu.t;
  db : Db.t;
  wal : Gg_storage.Wal.t;
  metrics : Metrics.t;
  mutable active : bool;
  mutable lsn : int;
  mutable sealed_epoch : int;
  epochs : epoch Itbl.t;  (* cen *)
  ft : Ft_gate.t;  (* fault-tolerance gates (§5.2) *)
  sync_queue : Txn.t Queue.t;  (* GeoG-S: held until a fresh snapshot *)
  cross : Cross_group.t option;  (* partial replication only (DESIGN.md §12) *)
  last_eof : int array;
  mutable merging : bool;
  mutable csn_last : int;
  mutable txn_seq : int;
  mutable last_advance : int;  (* sim time the snapshot last moved *)
  mutable last_txn_cen : int;  (* highest epoch holding a committed local txn *)
  fast : Fastpath.t option;  (* clock-assisted fast path (DESIGN.md §14) *)
  record_reads : bool;
      (* build read sets: only RR/SI validation and SSI's read keys
         consume them, so RC executes without one *)
}

(* vCPUs per node: the paper's servers have 32. *)
let cores = 32

let create env ~id ~db =
  let obs = Sim.obs env.sim in
  let metrics = Metrics.create ~obs ~id () in
  {
    id;
    env;
    obs;
    cpu = Cpu.create env.sim ~cores;
    db;
    wal = Gg_storage.Wal.create ~fsync_us:env.params.Params.cost.log_fsync_us ();
    metrics;
    active = true;
    lsn = -1;
    sealed_epoch = -1;
    epochs = Itbl.create 64;
    ft = Ft_gate.create env.params ~topology:(Net.topology env.net) ~node:id;
    sync_queue = Queue.create ();
    cross =
      Cross_group.create env.part ~topology:(Net.topology env.net)
        ~backup:env.backup ~db ~node:id;
    last_eof = Array.make (Net.n_nodes env.net) 0;
    merging = false;
    csn_last = 0;
    txn_seq = 0;
    last_advance = 0;
    last_txn_cen = -1;
    record_reads = env.params.Params.isolation <> Params.RC;
    fast =
      Fastpath.create env.params ~clock:env.clock ~part:env.part ~obs ~metrics
        ~node:id;
  }

let id t = t.id
let db t = t.db
let lsn t = t.lsn
let sealed_epoch t = t.sealed_epoch
let metrics t = t.metrics
let active t = t.active

let pending_waiting t =
  Itbl.fold (fun _ ep acc -> acc + List.length ep.waiting) t.epochs 0

let held_epochs t =
  List.sort compare (Itbl.fold (fun cen _ acc -> cen :: acc) t.epochs [])

let last_txn_epoch t = t.last_txn_cen

let now t = Sim.now t.env.sim
let epoch_us t = t.env.params.Params.epoch_us
let epoch_of t time = time / epoch_us t

let up t = t.active && not (Net.is_down t.env.net t.id)

(* The node's local clock: sim time itself unless the fast path gave the
   cluster a skew bound (DESIGN.md §14). *)
let local_now t = Clock.read t.env.clock ~node:t.id ~at:(now t)

(* Epochs are cut by the local clock, so the epoch a new transaction
   enters follows the local reading — floored at [sealed_epoch + 1],
   because a slow clock must not assign transactions to an epoch whose
   EOF already went out. *)
let current_epoch t = max (epoch_of t (local_now t)) (t.sealed_epoch + 1)

let last_eof_from t ~peer = t.last_eof.(peer)
let touch_eof t ~peer = t.last_eof.(peer) <- Sim.now t.env.sim

(* Commit timestamps come from the local clock — under the fast path they
   feed the peers' watermarks — and stay monotone per node. *)
let fresh_csn t =
  let ts = max (local_now t) (t.csn_last + 1) in
  t.csn_last <- ts;
  Csn.make ~ts ~node:t.id

let send_msg t ~dst ~bytes msg =
  let env = t.env in
  Net.send env.net ~src:t.id ~dst ~bytes (fun () -> env.deliver ~dst msg)

let broadcast t send =
  for dst = 0 to Net.n_nodes t.env.net - 1 do
    if dst <> t.id then send ~dst
  done

(* Batch frames pass through [send_batch] so the chaos checker's
   corruption fault can mangle them: a corrupted frame travels as raw
   wire bytes truncated to half (which guarantees the decoder trips) and
   is billed at the ORIGINAL frame size — corruption does not discount
   the WAN bill. With [corrupt_frac] at its default 0.0 no RNG draw
   happens and the frame goes out as a structured message, exactly as
   before. *)
let send_batch t ~bytes (b : Writeset.Batch.t) ~dst =
  send_msg t ~dst ~bytes
    (if Net.corrupt_frac t.env.net > 0.0 && Net.draw_corrupt t.env.net then
       let wire = Writeset.Batch.to_wire b in
       Batch_wire (Bytes.sub wire 0 (Bytes.length wire / 2))
     else Batch_msg b)

(* --- per-epoch records --- *)

(* Epoch [cen]'s record, created on first use. Callers create one only
   for an epoch past the snapshot. *)
let epoch t cen =
  match Itbl.find_opt t.epochs cen with
  | Some ep -> ep
  | None ->
    let committed = not (Ft_gate.awaits_commit t.ft) in
    let peer _ =
      { txns = []; txn_keys = Itbl.create 8; eof = false; expected = -1; committed }
    in
    let peers = Array.init (Net.n_nodes t.env.net) peer in
    let ep = { pending = []; sealed = []; waiting = []; notify_at = 0; peers } in
    Itbl.replace t.epochs cen ep;
    ep

(* Peer [peer]'s batch for epoch [cen] (> lsn). *)
let batch_state t ~cen ~peer = (epoch t cen).peers.(peer)

(* --- finishing transactions --- *)

let finish t (txn : Txn.t) outcome =
  if not txn.Txn.finished then begin
    txn.Txn.finished <- true;
    Metrics.record_outcome t.metrics outcome;
    let committed = Txn.is_committed outcome in
    if committed then Metrics.record_phases t.metrics txn.Txn.phases;
    if Obs.tracing t.obs then Txn.emit_span t.obs txn outcome;
    if committed then t.env.on_commit txn;
    txn.Txn.callback outcome
  end

let finish_committed t (txn : Txn.t) =
  let latency_us = now t - txn.Txn.submit_time in
  finish t txn (Txn.Committed { latency_us; results = txn.Txn.sql_results })

let finish_aborted t txn reason =
  finish t txn (Txn.Aborted { latency_us = now t - txn.Txn.submit_time; reason })

(* The WAL group commit of a transaction's write set. *)
let wal_append t (txn : Txn.t) =
  Gg_storage.Wal.append t.wal
    ~bytes:(Option.fold ~none:0 ~some:Writeset.encoded_size txn.Txn.writeset)

(* Answer [txn] of epoch [cen] [after] µs from now: committed when
   [abort] is [None]. *)
let answer_after t (txn : Txn.t) ~cen ~after abort =
  Sim.schedule t.env.sim ~after (fun () ->
      match abort with
      | None ->
        Metrics.record_epoch_commit t.metrics ~cen
          ~latency_us:(now t - txn.Txn.submit_time);
        finish_committed t txn
      | Some reason -> finish_aborted t txn reason)

(* Settle the cross-group transactions whose vote window ends at merge
   [e] (DESIGN.md §12) and answer the ones that originated here. *)
let answer_resolved t cg e ~span =
  List.iter
    (fun (d : Cross_group.decision) ->
      if Obs.tracing t.obs then
        Obs.emit t.obs ~node:t.id ~epoch:d.cen ~span ~cat:"epoch"
          "cross.resolve"
          ~detail:
            (Printf.sprintf "csn=%d ok=%b groups=%d" d.csn (d.abort = None)
               d.n_groups);
      match d.txn with
      | None -> ()
      | Some txn -> (
        txn.Txn.merge_span <- span;
        txn.Txn.phases.wait_us <-
          txn.Txn.phases.wait_us + (now t - txn.Txn.commit_point);
        match d.abort with
        | None ->
          txn.Txn.phases.log_us <- wal_append t txn;
          answer_after t txn ~cen:d.cen ~after:txn.Txn.phases.log_us None
        | Some reason -> finish_aborted t txn reason))
    (Cross_group.resolve cg ~e ~members:(t.env.members_at e))

(* --- epoch sealing --- *)

let seal_epoch t e =
  (* A re-join re-seals epochs the installed snapshot already covers:
     peers still wait for those EOFs, but this node keeps no record. *)
  let ep = if e > t.lsn then Some (epoch t e) else None in
  let txns = Option.fold ~none:[] ~some:(fun ep -> List.rev ep.pending) ep in
  (* One span per sealed epoch batch: the EOF's wire header carries it to
     every peer, whose batch.recv events become its causal children. *)
  let bspan = Obs.new_span t.obs ~node:t.id in
  Backup.put t.env.backup
    (Writeset.Batch.make ~node:t.id ~cen:e ~txns ~eof:true ~span:bspan ());
  if Obs.tracing t.obs then
    Obs.emit t.obs ~node:t.id ~epoch:e ~span:bspan ~cat:"epoch" "seal"
      ~detail:(Printf.sprintf "txns=%d" (List.length txns));
  (* With pipelining the write sets already went out in mini-batches;
     only the EOF marker (carrying the expected count) travels now. *)
  let send_eof ?(group = "") txns send =
    let wire_batch =
      if t.env.params.Params.pipeline then
        Writeset.Batch.make ~node:t.id ~cen:e ~txns:[] ~eof:true
          ~count:(List.length txns) ~span:bspan ()
      else Writeset.Batch.make ~node:t.id ~cen:e ~txns ~eof:true ~span:bspan ()
    in
    let bytes = Writeset.Batch.wire_size wire_batch in
    if Obs.tracing t.obs then
      Obs.emit t.obs ~node:t.id ~epoch:e ~span:bspan ~cat:"epoch" "batch.send"
        ~detail:(Printf.sprintf "%sbytes=%d" group bytes);
    send (send_batch t ~bytes wire_batch)
  in
  (match t.cross with
  | None -> send_eof txns (broadcast t)
  | Some cg ->
    (* Interest-scoped dissemination: each replica group receives one
       EOF frame per epoch carrying (or counting) only the transactions
       that touch its keys. Every node still hears an EOF from every
       peer every epoch, so the failure detector and the merge-readiness
       rule are unchanged; the backup above keeps the full batch for
       stall repair and view changes. *)
    List.iter
      (fun (g, gtxns, dsts) ->
        send_eof ~group:(Printf.sprintf "group=%d " g) gtxns (fun send ->
            List.iter (fun dst -> send ~dst) dsts))
      (Cross_group.eof_groups cg txns));
  Option.iter
    (fun ep ->
      ep.sealed <- txns;
      ep.notify_at <- now t + Ft_gate.notify_delay t.ft)
    ep;
  Ft_gate.sealed t.ft ~cen:e ~members:(List.length (t.env.members_at e));
  t.sealed_epoch <- e

let csn_keys txns = List.sort compare (List.map Epoch_merge.csn_key txns)

(* The records merged at epoch [e] and the simulated merge duration.
   Every blocked transaction thread is checked/notified around each
   snapshot generation (§5.1): with short epochs this scan dominates,
   which is why the paper's Fig 8 peaks at ~10 ms. Under partial
   replication the work is this group's fragments plus the deferred
   fragments resolving at this merge. *)
let merge_work t e txns =
  let n_records, resolving =
    match t.cross with
    | Some cg -> Cross_group.merge_records cg ~e txns
    | None ->
      ( List.fold_left
          (fun n (ws : Writeset.t) -> n + List.length ws.Writeset.records)
          0 txns,
        0 )
  in
  let cost = t.env.params.Params.cost in
  ( n_records,
    cost.merge_base_us
    + (pending_waiting t * cost.notify_us)
    + (n_records + resolving)
      * cost.merge_record_us / max 1 cost.merge_threads )

let rec schedule_boundary t e =
  let b = (e + 1) * epoch_us t in
  (* Each node seals on its LOCAL clock: the boundary fires at the sim
     time where the local reading crosses [b] (first-order inversion of
     the offset; drift over one epoch is negligible). A fast clock seals
     early, a slow one late — the skew cost the watermark deadlines of
     the peers then absorb. *)
  let at = b - Clock.offset_us t.env.clock ~node:t.id ~at:b in
  Sim.schedule_at t.env.sim at (fun () ->
      if up t then begin
        seal_epoch t e;
        try_advance t
      end;
      schedule_boundary t (e + 1))

(* --- the per-epoch merge: Algorithm 2 + validation + write-back --- *)

and collect_epoch_txns t e =
  (* Local + all remote updates of epoch e, deduplicated by csn (the
     network may duplicate; merge must stay idempotent). Under partial
     replication a remote write set is kept only if it touches this
     node's group: normal dissemination never delivers others, but a
     stall repair fetches the sender's FULL backup batch — dropping the
     foreign-only entries here keeps both paths equivalent. Local
     transactions always stay (their outcome is owed to the client). *)
  let keep ws =
    match t.cross with Some cg -> Cross_group.keeps cg ws | None -> true
  in
  let seen = Itbl.create 64 in
  let add acc ws =
    let k = Epoch_merge.csn_key ws in
    if Itbl.mem seen k then acc
    else begin
      Itbl.replace seen k ();
      ws :: acc
    end
  in
  let ep = epoch t e in
  let acc = List.fold_left add [] ep.sealed in
  let acc =
    List.fold_left
      (fun acc peer ->
        if peer = t.id then acc
        else
          List.fold_left
            (fun acc ws -> if keep ws then add acc ws else acc)
            acc (List.rev ep.peers.(peer).txns))
      acc
      (t.env.members_at e)
  in
  List.rev acc

and peer_complete t ~cen ~peer =
  let bs = batch_state t ~cen ~peer in
  bs.eof && Itbl.length bs.txn_keys >= bs.expected && bs.committed

(* The peers whose epoch-[e] batch has not fully arrived. *)
and incomplete_peers t e =
  List.filter
    (fun peer -> peer <> t.id && not (peer_complete t ~cen:e ~peer))
    (t.env.members_at e)

and merge_ready t e =
  t.sealed_epoch >= e
  && Option.fold ~none:true
       ~some:(Cross_group.ready ~e ~members:(t.env.members_at e))
       t.cross
  && incomplete_peers t e = []

and try_advance t =
  (if t.active && not t.merging then begin
    let e = t.lsn + 1 in
    if merge_ready t e then begin
      t.merging <- true;
      let txns = collect_epoch_txns t e in
      let n_records, fresh = merge_work t e txns in
      (* A speculative merge armed for this epoch is confirmed or
         discarded here; either way externalization happens strictly
         after this point. *)
      let settle f = Fastpath.settle f ~e ~now:(now t) ~keys:(csn_keys txns) in
      let merge_started, duration, mspan, prelog =
        match Option.map settle t.fast with
        | Some (Fastpath.Confirmed c) ->
          (c.start, c.duration, c.span, Some c.prelog)
        | Some (Fastpath.Mispredicted { prelog }) ->
          (now t, fresh, Obs.new_span t.obs ~node:t.id, Some prelog)
        | Some Fastpath.Not_armed | None ->
          (now t, fresh, Obs.new_span t.obs ~node:t.id, None)
      in
      let delay = merge_started + duration - now t in
      if Obs.tracing t.obs then
        Obs.emit t.obs ~node:t.id ~epoch:e ~span:mspan ~dur:delay ~cat:"epoch"
          "merge.start"
          ~detail:(Printf.sprintf "txns=%d records=%d" (List.length txns) n_records);
      Sim.schedule t.env.sim ~after:delay (fun () ->
          do_merge t e txns ~merge_started ~duration ~span:mspan ~prelog;
          t.merging <- false;
          try_advance t)
    end
  end);
  maybe_spec t

and maybe_spec t =
  match t.fast with
  | Some f when up t && (not t.merging) && t.sealed_epoch > t.lsn -> (
    let e = t.lsn + 1 in
    let incomplete = incomplete_peers t e in
    match Fastpath.plan f ~e ~now:(now t) ~incomplete with
    | Fastpath.Speculate ->
      let txns = collect_epoch_txns t e in
      let n_records, duration = merge_work t e txns in
      Fastpath.arm f ~e ~now:(now t) ~duration ~n_records ~keys:(csn_keys txns);
      (* WAL prelog: the local write sets froze at the seal, so their
         group commit overlaps the EOF flight. *)
      List.iter
        (fun (txn : Txn.t) -> txn.Txn.phases.log_us <- wal_append t txn)
        (epoch t e).waiting
    | Fastpath.Wake_at at ->
      Sim.schedule_at t.env.sim at (fun () ->
          Fastpath.woke f ~at;
          maybe_spec t)
    | Fastpath.Nothing -> ())
  | _ -> ()

and do_merge t e full ~merge_started ~duration ~span ~prelog =
  (* Under partial replication: settle the cross-group transactions
     whose vote window ends here, before this epoch's own merge reads the
     database; then merge this group's fragments, deferring the
     cross-group write-backs. *)
  let ep, txns =
    match t.cross with
    | None -> (None, full)
    | Some cg ->
      answer_resolved t cg e ~span;
      let ep, frags = Cross_group.fragments cg full in
      (Some ep, frags)
  in
  (* Phases A–C (DeltaCRDTMerge pre-write, validation, SSI, write-back)
     live in {!Epoch_merge} (DESIGN.md §10). *)
  let m =
    Epoch_merge.run ~db:t.db ~jobs:1
      ~ssi:(t.env.params.Params.isolation = Params.SSI)
      ~level:(Params.effective_merge_level t.env.params)
      ?defer:(Option.map Cross_group.deferred ep)
      txns
  in
  Metrics.record_merged_records t.metrics (Epoch_merge.n_records m);
  t.lsn <- e;
  t.last_advance <- now t;
  if Obs.tracing t.obs then
    Obs.emit t.obs ~node:t.id ~epoch:e ~span ~dur:duration ~cat:"epoch"
      "merge.commit"
      ~detail:
        (Printf.sprintf "committed=%d dead=%d records=%d"
           (Epoch_merge.n_committed m) (Epoch_merge.n_dead m)
           (Epoch_merge.n_records m));
  (* Tombstone GC: Algorithm 2 only needs tombstones for "the past few
     epochs"; keep a generous window and reclaim the rest. *)
  if e mod 100 = 0 then ignore (Db.purge_tombstones t.db ~before_cen:(e - 100));
  (* Notify the local transactions of this epoch. *)
  let record = epoch t e in
  List.iter
    (fun (txn : Txn.t) ->
      txn.Txn.phases.merge_us <- duration;
      match ep with
      | Some ep when Cross_group.hold ep txn ->
        () (* cross-group: answered at resolution, once the votes are in *)
      | _ ->
        txn.Txn.merge_span <- span;
        txn.Txn.phases.wait_us <-
          txn.Txn.phases.wait_us + (merge_started - txn.Txn.commit_point);
        let log_us =
          match prelog with
          | Some logged_at ->
            (* the group commit went out at speculation time: only its
               unfinished remainder is still on the commit path *)
            max 0 (logged_at + txn.Txn.phases.log_us - now t)
          | None -> wal_append t txn
        in
        txn.Txn.phases.log_us <- log_us;
        answer_after t txn ~cen:e
          ~after:(max 0 (record.notify_at - now t) + log_us)
          (Option.fold ~none:(Some Txn.Write_conflict)
             ~some:(Epoch_merge.verdict m) txn.Txn.writeset))
    record.waiting;
  (match (t.cross, ep) with
  | Some cg, Some ep ->
    let verdicts, dsts = Cross_group.votes cg ep m ~cen:e full in
    (* header + epoch/group ids + 9 bytes per (csn, verdict) pair *)
    let bytes = 8 + 16 + (9 * List.length verdicts) in
    List.iter
      (fun dst ->
        send_msg t ~dst ~bytes
          (Part_vote { cen = e; group = Cross_group.group cg; verdicts; span }))
      dsts
  | _ -> ());
  Itbl.remove t.epochs e;
  t.env.on_snapshot ~node:t.id ~lsn:e;
  (* GeoG-S: a fresh snapshot releases held transactions. *)
  release_sync_queue t

(* --- Algorithm 1: local transaction lifecycle --- *)

and release_sync_queue t =
  if t.env.params.Params.variant = Params.Sync_exec then begin
    let ready = Queue.create () in
    Queue.transfer t.sync_queue ready;
    Queue.iter (fun txn -> start_execution t txn) ready
  end

and submit t request callback =
  let txn =
    Txn.create ~id:t.txn_seq ~node:t.id ~request ~submit_time:(now t) ~callback
  in
  t.txn_seq <- t.txn_seq + 1;
  txn.Txn.span <- Obs.new_span t.obs ~node:t.id;
  Metrics.record_start t.metrics;
  if not (up t) then finish_aborted t txn Txn.Node_failure
  else begin
    txn.Txn.sen <- current_epoch t;
    txn.Txn.lsn <- t.lsn;
    match t.env.params.Params.variant with
    | Params.Sync_exec when t.lsn < current_epoch t - 1 ->
      Queue.add txn t.sync_queue
    | Params.Sync_exec | Params.Optimistic | Params.Async_merge ->
      start_execution t txn
  end

and start_execution t (txn : Txn.t) =
  let cost = t.env.params.Params.cost in
  (* Time spent queued before execution (GeoG-S holds) counts as wait. *)
  txn.Txn.phases.wait_us <- now t - txn.Txn.submit_time;
  match txn.Txn.request with
  | Txn.Op_txn o ->
    (* Stored-procedure style: parse, then one execution slice. Reads
       happen at the start of the slice; the commit point comes exec_us
       (+ injected delay) later, so the snapshot may move underneath —
       that is what RR/SI validation catches. *)
    let parse_us = o.Gg_workload.Op.parse_cost_us in
    let exec_us = Gg_workload.Op.n_ops o * cost.exec_op_us in
    let extra_us = o.Gg_workload.Op.exec_extra_us in
    txn.Txn.phases.parse_us <- parse_us;
    txn.Txn.phases.exec_us <- exec_us + extra_us;
    Cpu.run t.cpu ~cost:parse_us (fun () ->
        match run_ops t txn o with
        | Error m ->
          Cpu.run t.cpu ~cost:exec_us (fun () ->
              finish_aborted t txn (Txn.Constraint_violation m))
        | Ok () ->
          Cpu.run t.cpu ~cost:exec_us (fun () ->
              if extra_us > 0 then
                Sim.schedule t.env.sim ~after:extra_us (fun () -> commit_point t txn)
              else commit_point t txn))
  | Txn.Sql_txn { stmts; _ } ->
    (* Interactive SQL executes statement by statement: each statement
       pays its own parse + execution slice, so later statements observe
       whatever snapshots were generated in the meantime (the source of
       RR/SI read-validation aborts). *)
    let per_stmt_parse = 400 in
    txn.Txn.phases.parse_us <- List.length stmts * per_stmt_parse;
    txn.Txn.phases.exec_us <- List.length stmts * cost.sql_stmt_us;
    let ctx =
      Executor.Ctx.create ~record_reads:t.record_reads
        ~track_cols:(Params.effective_merge_level t.env.params = Params.Column)
        t.db
    in
    let rec step acc = function
      | [] ->
        txn.Txn.sql_results <- List.rev acc;
        txn.Txn.read_set <- Executor.Ctx.read_set ctx;
        set_writes txn (Executor.Ctx.writeset_records ctx);
        commit_point t txn
      | (sql, params) :: rest ->
        Cpu.run t.cpu ~cost:(per_stmt_parse + cost.sql_stmt_us) (fun () ->
            match Executor.exec_sql ctx sql ~params with
            | Error m -> finish_aborted t txn (Txn.Constraint_violation m)
            | Ok r -> step (r :: acc) rest)
    in
    step [] stmts

and run_ops t (txn : Txn.t) o =
  match
    Op_exec.exec ~record_reads:t.record_reads
      ~col_mask:(Params.effective_merge_level t.env.params = Params.Column)
      t.db o
  with
  | Error m -> Error m
  | Ok { Op_exec.reads; writes } ->
    txn.Txn.read_set <- reads;
    set_writes txn writes;
    Ok ()

(* The executed write set; its meta is filled in at the commit point. *)
and set_writes (txn : Txn.t) records =
  txn.Txn.writeset <-
    (if records = [] then None
     else
       Some
         (Writeset.make
            ~meta:(Meta.make ~sen:txn.Txn.sen ~cen:0 ~csn:Csn.zero)
            ~records ()))

and read_validation t (txn : Txn.t) =
  (* Algorithm 1, lines 9-18. *)
  match t.env.params.Params.isolation with
  | Params.RC -> Ok ()
  | (Params.RR | Params.SI | Params.SSI) as iso -> (
    let violation =
      List.find_opt
        (fun (r : Executor.read_record) ->
          match Db.get_table t.db r.Executor.r_table with
          | None -> true
          | Some table -> (
            match Table.find table r.Executor.r_key_str with
            | None -> true (* row vanished *)
            | Some entry ->
              let h = entry.Table.header in
              if h.Row_header.deleted then true
              else if iso = Params.RR then
                not (Csn.equal h.Row_header.csn r.Executor.r_csn)
              else h.Row_header.cen - 1 > txn.Txn.lsn))
        txn.Txn.read_set
    in
    match violation with None -> Ok () | Some _ -> Error Txn.Read_validation)

and commit_point t (txn : Txn.t) =
  if not (up t) then () (* crashed mid-flight; the client will time out *)
  else
    match read_validation t txn with
    | Error reason -> finish_aborted t txn reason
    | Ok () -> (
      match txn.Txn.writeset with
      | None -> finish_committed t txn (* read-only: Algorithm 1 l.19-20 *)
      | Some ws -> (
        let cen = current_epoch t in
        let csn = fresh_csn t in
        let meta = Meta.make ~sen:txn.Txn.sen ~cen ~csn in
        let read_keys =
          (* The SSI extension ships the read-set keys with the write set
             so peers can detect rw-antidependencies (§4.3). *)
          if t.env.params.Params.isolation = Params.SSI then
            List.map
              (fun (r : Executor.read_record) ->
                (r.Executor.r_table, r.Executor.r_key_str))
              txn.Txn.read_set
          else []
        in
        let ws = Writeset.with_commit ws ~meta ~read_keys in
        txn.Txn.writeset <- Some ws;
        txn.Txn.cen <- cen;
        txn.Txn.csn <- csn;
        txn.Txn.commit_point <- now t;
        let mini () =
          let b =
            Writeset.Batch.make ~node:t.id ~cen ~txns:[ ws ] ~eof:false
              ~span:txn.Txn.span ()
          in
          send_batch t ~bytes:(Writeset.Batch.wire_size b) b
        in
        match t.env.params.Params.variant with
        | Params.Async_merge ->
          (* GeoG-A: merge locally now, gossip, reply immediately. *)
          Epoch_merge.lww_apply t.db ws;
          broadcast t (mini ());
          let cost = t.env.params.Params.cost in
          txn.Txn.phases.merge_us <-
            List.length ws.Writeset.records * cost.merge_record_us;
          txn.Txn.phases.log_us <- wal_append t txn;
          Sim.schedule t.env.sim ~after:txn.Txn.phases.log_us (fun () ->
              finish_committed t txn)
        | Params.Optimistic | Params.Sync_exec ->
          let ep = epoch t cen in
          ep.pending <- ws :: ep.pending;
          if t.env.params.Params.pipeline then begin
            let send = mini () in
            (* Interest-scoped pipelining: only members of the touched
               groups hear the mini-batch. *)
            match t.cross with
            | Some cg ->
              List.iter (fun dst -> send ~dst) (Cross_group.targets cg ws)
            | None -> broadcast t send
          end;
          ep.waiting <- txn :: ep.waiting;
          if cen > t.last_txn_cen then t.last_txn_cen <- cen))

(* --- Algorithm 3: receive side --- *)

and receive t msg =
  (* Messages to a down node are dropped by the network; a recovering
     node (up but not yet reactivated) buffers batches so nothing from
     its re-join epoch onwards is lost. *)
  match msg with
    | Batch_msg { Writeset.Batch.node = src; cen; txns; eof; count; span; _ } ->
      if t.env.params.Params.variant = Params.Async_merge then
        List.iter (Epoch_merge.lww_apply t.db) txns
      else if cen > t.lsn then begin
        Option.iter (fun f -> Fastpath.observe f ~src ~now:(now t) txns) t.fast;
        let bs = batch_state t ~cen ~peer:src in
        List.iter
          (fun (ws : Writeset.t) ->
            let k = Epoch_merge.csn_key ws in
            if not (Itbl.mem bs.txn_keys k) then begin
              Itbl.replace bs.txn_keys k ();
              bs.txns <- ws :: bs.txns
            end)
          txns;
        if eof then begin
          bs.eof <- true;
          bs.expected <- max bs.expected count;
          t.last_eof.(src) <- now t;
          (* The recv span becomes the parent of any Ft_ack we send back,
             continuing the causal chain across the acknowledgement. *)
          let rspan = Obs.new_span t.obs ~node:t.id in
          if Obs.tracing t.obs then
            Obs.emit t.obs ~node:t.id ~epoch:cen ~cat:"epoch" "batch.recv"
              ~span:rspan ~parent:(if span > 0 then span else -1)
              ~detail:
                (Printf.sprintf "from=%d txns=%d" src (Itbl.length bs.txn_keys));
          if Ft_gate.acks_eof t.ft then
            send_msg t ~dst:src ~bytes:40
              (Ft_ack { cen; from = t.id; span = rspan })
        end;
        try_advance t
      end
    | Batch_wire bytes -> (
      match Writeset.Batch.of_wire_opt bytes with
      | Some b -> receive t (Batch_msg b)
      | None ->
        (* Corrupted frame: indistinguishable from a lost one once the
           decoder trips; drop it and let the stall-repair path refetch
           the epoch from the sender's backup if the loss blocks. *)
        if Obs.tracing t.obs then
          Obs.emit t.obs ~node:t.id ~cat:"epoch" "batch.corrupt"
            ~detail:(Printf.sprintf "bytes=%d" (Bytes.length bytes)))
    | Part_vote { cen; group; verdicts; span = pspan } -> (
      match t.cross with
      | Some cg when Cross_group.on_vote cg ~lsn:t.lsn ~cen ~group verdicts ->
        if Obs.tracing t.obs then
          Obs.emit t.obs ~node:t.id ~epoch:cen ~cat:"epoch" "vote.recv"
            ~parent:(if pspan > 0 then pspan else -1)
            ~detail:
              (Printf.sprintf "group=%d verdicts=%d" group
                 (List.length verdicts));
        try_advance t
      | _ -> ())
    | Ft_ack { cen; from; span = pspan } ->
      let aspan = Obs.new_span t.obs ~node:t.id in
      if Obs.tracing t.obs then
        Obs.emit t.obs ~node:t.id ~epoch:cen ~cat:"epoch" "ft.ack" ~span:aspan
          ~parent:(if pspan > 0 then pspan else -1)
          ~detail:(Printf.sprintf "from=%d" from);
      if
        Ft_gate.ack t.ft ~cen ~from ~members:(List.length (t.env.members_at cen))
      then
        broadcast t
          (send_msg t ~bytes:40 (Ft_commit { cen; origin = t.id; span = aspan }))
    | Ft_commit { cen; origin; span = pspan } ->
      if Obs.tracing t.obs then
        Obs.emit t.obs ~node:t.id ~epoch:cen ~cat:"epoch" "ft.commit"
          ~parent:(if pspan > 0 then pspan else -1)
          ~detail:(Printf.sprintf "origin=%d" origin);
      if cen > t.lsn then (batch_state t ~cen ~peer:origin).committed <- true;
      try_advance t
    | State_snapshot _ -> ()
(* recovery installation goes through install_state *)

(* --- lifecycle --- *)

(* Stall repair (§5.2): without a reliable transport, a lost mini-batch,
   EOF or Ft_commit would block the next merge forever — the failure
   detector never fires because the peer keeps sending later EOFs. When
   the snapshot has not moved for [repair_after_us], re-fetch whatever is
   missing for epoch (lsn + 1) from the peers' backup servers (one
   regional round trip, same path survivors use after a view change). A
   batch present in the backup is durable, which is also all the Raft-FT
   commit gate establishes, so a successful fetch may release it too.
   Fetches are idempotent: receive deduplicates transactions by csn.
   250 ms of stall is what makes epochs survive message loss. *)
let repair_after_us = 250_000

let repair t =
  let e = t.lsn + 1 in
  if
    up t
    && (not t.merging)
    && t.sealed_epoch >= e
    && now t - t.last_advance > repair_after_us
  then begin
    List.iter
      (fun peer ->
        match Backup.get t.env.backup ~node:peer ~cen:e with
        | None -> ()
        | Some batch ->
          let delay = 2 * Topology.latency (Net.topology t.env.net) t.id peer in
          if Obs.tracing t.obs then
            Obs.emit t.obs ~node:t.id ~epoch:e ~cat:"epoch" "repair.fetch"
              ~detail:(Printf.sprintf "peer=%d" peer);
          Sim.schedule t.env.sim ~after:delay (fun () ->
              if up t then begin
                if e > t.lsn then (batch_state t ~cen:e ~peer).committed <- true;
                receive t (Batch_msg batch)
              end))
      (incomplete_peers t e);
    (* Missing cross-group votes stall the merge the same way: refetch
       them from the voting group's durable backup record. *)
    Option.iter
      (fun cg ->
        List.iter
          (fun (cen, group, delay) ->
            if Obs.tracing t.obs then
              Obs.emit t.obs ~node:t.id ~epoch:cen ~cat:"epoch" "repair.votes"
                ~detail:(Printf.sprintf "group=%d" group);
            Sim.schedule t.env.sim ~after:delay (fun () ->
                if up t then begin
                  Cross_group.fetched cg ~cen ~group;
                  try_advance t
                end))
          (Cross_group.refetch cg ~e ~members:(t.env.members_at e)))
      t.cross
  end

let rec schedule_repair t =
  Sim.schedule t.env.sim ~after:100_000 (fun () ->
      repair t;
      schedule_repair t)

let start t =
  (* The first boundary is picked by SIM time: a node whose local clock
     runs ahead must still seal every epoch from 0 (peers wait on its
     EOFs); its early boundaries simply all fire immediately. *)
  schedule_boundary t (epoch_of t (now t));
  schedule_repair t

(* Drop the volatile merge state: on a crash, and when a transferred
   snapshot replaces the database. *)
let reset_merge_state t =
  Option.iter Cross_group.reset t.cross;
  Option.iter Fastpath.reset t.fast;
  t.merging <- false

let set_active t v =
  if t.active && not v then begin
    (* Crash: drop all volatile per-epoch state; in-flight local txns are
       lost (their clients time out and retry elsewhere). *)
    t.active <- false;
    reset_merge_state t;
    Itbl.reset t.epochs;
    Ft_gate.reset t.ft;
    Queue.clear t.sync_queue
  end
  else if (not t.active) && v then t.active <- true

let missing_sealed_epochs t ~peer ~upto =
  let missing = ref [] in
  for e = upto downto t.lsn + 1 do
    match Itbl.find_opt t.epochs e with
    | Some ep when ep.peers.(peer).eof -> ()
    | _ -> missing := e :: !missing
  done;
  !missing

let make_state_snapshot ?(span = 0) t =
  State_snapshot { lsn = t.lsn; ckpt = Gg_storage.Checkpoint.encode t.db; span }

let install_state t ~rejoin ~lsn ~db =
  (* Guard against duplicated or stale snapshots: the transfer travels
     over the faulty network, so it can arrive twice (dup) or be re-sent
     by the cluster's retry loop after the node already resumed.
     Installing again would wipe live per-epoch state. *)
  if (not t.active) && lsn > t.lsn then begin
    (* Keep the records of epochs after the installed snapshot: they
       buffer the batches peers broadcast while the transfer was in
       flight (the crash dropped every local entry). *)
    Itbl.filter_map_inplace
      (fun cen ep -> if cen <= lsn then None else Some ep)
      t.epochs;
    reset_merge_state t;
    Db.replace_contents t.db ~from:db;
    t.lsn <- lsn;
    t.last_advance <- Sim.now t.env.sim;
    t.sealed_epoch <- max t.sealed_epoch lsn;
    t.active <- true;
    (* Seal every epoch from the re-join epoch up to the current one
       (all empty — the node served no clients): peers are already
       waiting for these EOFs, and our own merges need the local
       entries. The snapshot may cover epochs past [rejoin] (the donor
       keeps merging while the transfer is pending), in which case the
       already-covered epochs still need their empty seals broadcast.
       The current epoch is left to its own boundary timer. *)
    for e = min (t.lsn + 1) rejoin to current_epoch t - 1 do
      seal_epoch t e
    done;
    t.sealed_epoch <- max t.sealed_epoch lsn;
    try_advance t
  end
