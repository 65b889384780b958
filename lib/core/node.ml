module Sim = Gg_sim.Sim
module Net = Gg_sim.Net
module Obs = Gg_obs.Obs
module Cpu = Gg_sim.Cpu
module Topology = Gg_sim.Topology
module Clock = Gg_sim.Clock
module Db = Gg_storage.Db
module Csn = Gg_storage.Csn
module Writeset = Gg_crdt.Writeset

type msg =
  | Batch_msg of Writeset.Batch.t
  | Batch_wire of bytes
  | Ft_ack of { cen : int; from : int; span : int }
  | Ft_commit of { cen : int; origin : int; span : int }

type env = {
  sim : Sim.t;
  net : Net.t;
  params : Params.t;
  backup : Backup.t;
  clock : Clock.t;
  mutable members_at : int -> int list;
  mutable deliver : dst:int -> msg -> unit;
  mutable on_snapshot : node:int -> lsn:int -> unit;
  mutable on_commit : Txn.t -> unit;
}

type t = {
  id : int;
  env : env;
  obs : Obs.t;
  db : Db.t;
  wal : Gg_storage.Wal.t;
  metrics : Metrics.t;
  mutable active : bool;
  mutable lsn : int;
  mutable sealed_epoch : int;
  epochs : Epochs.t;  (* every epoch past [lsn] that holds state *)
  ft : Ft_gate.t;  (* fault-tolerance gates (§5.2) *)
  sync_queue : Txn.t Gg_util.Fifo.t;  (* GeoG-S: held until a fresh snapshot *)
  last_eof : int array;
  mutable merging : bool;
  mutable csn_last : int;
  mutable txn_seq : int;
  mutable last_advance : int;  (* sim time the snapshot last moved *)
  mutable last_txn_cen : int;  (* highest epoch holding a committed local txn *)
  fast : Fastpath.t option;  (* clock-assisted fast path (DESIGN.md §14) *)
  exec : Execution.t;  (* Algorithm 1 up to the commit point *)
}

(* vCPUs per node: the paper's servers have 32. *)
let cores = 32

let create env ~id ~db =
  let obs = Sim.obs env.sim in
  let metrics = Metrics.create ~obs ~id in
  let ft = Ft_gate.create env.params ~topology:(Net.topology env.net) ~node:id in
  {
    id;
    env;
    obs;
    db;
    wal = Gg_storage.Wal.create ~fsync_us:env.params.Params.cost.log_fsync_us ();
    metrics;
    active = true;
    lsn = -1;
    sealed_epoch = -1;
    epochs =
      Epochs.create ~peers:(Net.n_nodes env.net)
        ~awaits_commit:(Ft_gate.awaits_commit ft);
    ft;
    sync_queue =
      (* The filler fills vacant slots only; it never executes. *)
      Gg_util.Fifo.create
        ~filler:
          (Txn.create ~id:(-1) ~node:id
             ~request:(Txn.Sql_txn { label = ""; stmts = [] })
             ~submit_time:0 ~callback:ignore);
    last_eof = Array.make (Net.n_nodes env.net) 0;
    merging = false;
    csn_last = 0;
    txn_seq = 0;
    last_advance = 0;
    last_txn_cen = -1;
    exec =
      Execution.create env.params ~sim:env.sim
        ~cpu:(Cpu.create env.sim ~cores) ~db;
    fast =
      Fastpath.create env.params ~clock:env.clock ~obs ~metrics ~node:id;
  }

let id t = t.id
let db t = t.db
let lsn t = t.lsn
let sealed_epoch t = t.sealed_epoch
let metrics t = t.metrics
let active t = t.active

let pending_waiting t = Epochs.waiting t.epochs
let held_epochs t = Epochs.held t.epochs
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
   is billed at the ORIGINAL frame size. With [corrupt_frac] at its
   default 0.0 no RNG draw happens. *)
let send_batch t ~bytes (b : Writeset.Batch.t) ~dst =
  send_msg t ~dst ~bytes
    (if Net.corrupt_frac t.env.net > 0.0 && Net.draw_corrupt t.env.net then
       let wire = Writeset.Batch.to_wire b in
       Batch_wire (Bytes.sub wire 0 (Bytes.length wire / 2))
     else Batch_msg b)

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

(* --- epoch sealing --- *)

let seal_epoch t e =
  (* A re-join re-seals epochs the installed snapshot already covers:
     peers still wait for those EOFs, but this node keeps no record. *)
  let ep = if e > t.lsn then Some (Epochs.get t.epochs e) else None in
  let txns =
    Option.fold ~none:[] ~some:(fun ep -> List.rev ep.Epochs.pending) ep
  in
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
  let wire_batch =
    if t.env.params.Params.pipeline then
      Writeset.Batch.make ~node:t.id ~cen:e ~txns:[] ~eof:true
        ~count:(List.length txns) ~span:bspan ()
    else Writeset.Batch.make ~node:t.id ~cen:e ~txns ~eof:true ~span:bspan ()
  in
  let bytes = Writeset.Batch.wire_size wire_batch in
  if Obs.tracing t.obs then
    Obs.emit t.obs ~node:t.id ~epoch:e ~span:bspan ~cat:"epoch" "batch.send"
      ~detail:(Printf.sprintf "bytes=%d" bytes);
  broadcast t (send_batch t ~bytes wire_batch);
  Option.iter
    (fun ep ->
      ep.Epochs.sealed <- txns;
      ep.notify_at <- now t + Ft_gate.notify_delay t.ft)
    ep;
  Ft_gate.sealed t.ft ~cen:e ~members:(List.length (t.env.members_at e));
  t.sealed_epoch <- e

let csn_keys txns = List.sort compare (List.map Epoch_merge.csn_key txns)

(* Local + all remote updates of epoch e, in merge order. *)
let collect_epoch_txns t e =
  Epochs.collect t.epochs ~cen:e ~self:t.id (t.env.members_at e)

(* The peers whose epoch-[e] batch has not fully arrived. *)
let incomplete_peers t e =
  Epochs.incomplete t.epochs ~cen:e ~self:t.id (t.env.members_at e)

(* The records in [txns] and the simulated duration of merging them.
   Every blocked transaction thread is checked/notified around each
   snapshot generation (§5.1): with short epochs this scan dominates,
   which is why the paper's Fig 8 peaks at ~10 ms. *)
let merge_work t txns =
  let n_records =
    List.fold_left
      (fun n (ws : Writeset.t) -> n + List.length ws.Writeset.records)
      0 txns
  in
  let cost = t.env.params.Params.cost in
  ( n_records,
    cost.merge_base_us
    + (pending_waiting t * cost.notify_us)
    + (n_records * cost.merge_record_us / max 1 cost.merge_threads) )

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

and try_advance t =
  (if t.active && not t.merging then begin
    let e = t.lsn + 1 in
    if t.sealed_epoch >= e && incomplete_peers t e = [] then begin
      t.merging <- true;
      let txns = collect_epoch_txns t e in
      let n_records, fresh = merge_work t txns in
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
      let n_records, duration = merge_work t txns in
      Fastpath.arm f ~e ~now:(now t) ~duration ~n_records ~keys:(csn_keys txns);
      (* WAL prelog: the local write sets froze at the seal, so their
         group commit overlaps the EOF flight. *)
      List.iter
        (fun (txn : Txn.t) -> txn.Txn.phases.log_us <- wal_append t txn)
        (Epochs.get t.epochs e).waiting
    | Fastpath.Wake_at at ->
      Sim.schedule_at t.env.sim at (fun () ->
          Fastpath.woke f ~at;
          maybe_spec t)
    | Fastpath.Nothing -> ())
  | _ -> ()

and do_merge t e txns ~merge_started ~duration ~span ~prelog =
  (* Phases A–C (DeltaCRDTMerge pre-write, validation, SSI, write-back)
     live in {!Epoch_merge} (DESIGN.md §10). *)
  let m =
    Epoch_merge.run ~db:t.db ~jobs:1 ~ssi:(Execution.ssi t.exec)
      ~level:(Params.effective_merge_level t.env.params) txns
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
  let record = Epochs.get t.epochs e in
  List.iter
    (fun (txn : Txn.t) ->
      txn.Txn.phases.merge_us <- duration;
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
      let verdict =
        Option.fold ~none:(Some Txn.Write_conflict)
          ~some:(Epoch_merge.verdict m) txn.Txn.writeset
      in
      Sim.schedule t.env.sim
        ~after:(max 0 (record.notify_at - now t) + log_us)
        (fun () ->
          match verdict with
          | None ->
            Metrics.record_epoch_commit t.metrics ~cen:e
              ~latency_us:(now t - txn.Txn.submit_time);
            finish_committed t txn
          | Some reason -> finish_aborted t txn reason))
    record.waiting;
  Epochs.remove t.epochs e;
  t.env.on_snapshot ~node:t.id ~lsn:e;
  (* GeoG-S: a fresh snapshot releases held transactions. *)
  release_sync_queue t

(* --- Algorithm 1: local transaction lifecycle --- *)

and release_sync_queue t =
  if t.env.params.Params.variant = Params.Sync_exec then begin
    (* Only the transactions held now: one held while they start waits
       for the next snapshot. *)
    for _ = 1 to Gg_util.Fifo.length t.sync_queue do
      start_execution t (Gg_util.Fifo.pop t.sync_queue)
    done
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
      Gg_util.Fifo.push t.sync_queue txn
    | Params.Sync_exec | Params.Optimistic | Params.Async_merge ->
      start_execution t txn
  end

and start_execution t (txn : Txn.t) =
  (* Time spent queued before execution (GeoG-S holds) counts as wait. *)
  txn.Txn.phases.wait_us <- now t - txn.Txn.submit_time;
  Execution.run t.exec txn (function
    | Execution.Failed m -> finish_aborted t txn (Txn.Constraint_violation m)
    | _ when not (up t) -> () (* crashed mid-flight; the client will time out *)
    | Execution.Read_invalid -> finish_aborted t txn Txn.Read_validation
    | Execution.Commit_point -> commit_point t txn)

and commit_point t (txn : Txn.t) =
  match txn.Txn.writeset with
  | None -> finish_committed t txn (* read-only: Algorithm 1 l.19-20 *)
  | Some ws -> (
    let cen = current_epoch t in
    let ws = Execution.stamp t.exec txn ws ~cen ~csn:(fresh_csn t) in
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
      let ep = Epochs.get t.epochs cen in
      ep.pending <- ws :: ep.pending;
      if t.env.params.Params.pipeline then broadcast t (mini ());
      ep.waiting <- txn :: ep.waiting;
      if cen > t.last_txn_cen then t.last_txn_cen <- cen)

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
        Epochs.add t.epochs ~cen ~peer:src txns;
        if eof then begin
          Epochs.eof t.epochs ~cen ~peer:src ~count;
          t.last_eof.(src) <- now t;
          (* The recv span becomes the parent of any Ft_ack we send back,
             continuing the causal chain across the acknowledgement. *)
          let rspan = Obs.new_span t.obs ~node:t.id in
          if Obs.tracing t.obs then
            Obs.emit t.obs ~node:t.id ~epoch:cen ~cat:"epoch" "batch.recv"
              ~span:rspan ~parent:(if span > 0 then span else -1)
              ~detail:
                (Printf.sprintf "from=%d txns=%d" src
                   (Epochs.received t.epochs ~cen ~peer:src));
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
      if cen > t.lsn then Epochs.commit t.epochs ~cen ~peer:origin;
      try_advance t

(* --- lifecycle --- *)

(* Stall repair (§5.2): without a reliable transport, a lost mini-batch,
   EOF or Ft_commit would block the next merge forever — the failure
   detector never fires because the peer keeps sending later EOFs. When
   the snapshot has not moved for [repair_after_us], re-fetch whatever is
   missing for epoch (lsn + 1) from the peers' backup servers (one
   regional round trip, same path survivors use after a view change). A
   batch present in the backup is durable, which is also all the Raft-FT
   commit gate establishes, so a successful fetch may release it too.
   Fetches are idempotent: {!Epochs.add} drops a write set it holds.
   250 ms of stall is what makes epochs survive message loss. *)
let repair_after_us = 250_000

let repair t =
  let e = t.lsn + 1 in
  let stalled = now t - t.last_advance > repair_after_us in
  if up t && (not t.merging) && t.sealed_epoch >= e && stalled then begin
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
                if e > t.lsn then Epochs.commit t.epochs ~cen:e ~peer;
                receive t (Batch_msg batch)
              end))
      (incomplete_peers t e)
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
  Option.iter Fastpath.reset t.fast;
  t.merging <- false

let set_active t v =
  if t.active && not v then begin
    (* Crash: drop all volatile per-epoch state; in-flight local txns are
       lost (their clients time out and retry elsewhere). *)
    t.active <- false;
    reset_merge_state t;
    Epochs.reset t.epochs;
    Ft_gate.reset t.ft;
    Gg_util.Fifo.clear t.sync_queue
  end
  else if (not t.active) && v then t.active <- true

let missing_sealed_epochs t ~peer ~upto =
  Epochs.missing_eof t.epochs ~peer ~lsn:t.lsn ~upto

let checkpoint t = (t.lsn, Gg_storage.Checkpoint.encode t.db)

let install_state t ~rejoin ~lsn ~db =
  (* Guard against duplicated or stale snapshots: the transfer travels
     over the faulty network, so it can arrive twice (dup) or be re-sent
     by the cluster's retry loop after the node already resumed.
     Installing again would wipe live per-epoch state. *)
  if (not t.active) && lsn > t.lsn then begin
    (* Keep the records of epochs after the installed snapshot: they
       buffer the batches peers broadcast while the transfer was in
       flight (the crash dropped every local entry). *)
    Epochs.drop_through t.epochs ~lsn;
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
