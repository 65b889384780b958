(* The traced run's layer split. After the run has quiesced, the inputs
   each layer saw are replayed through that layer's public function and
   timed from here, outside the program:

   - Op_exec.exec on every generated key-level transaction;
   - Gg_sql Parser.parse and Executor.exec on every generated statement;
   - Writeset.Batch.to_wire on exactly the frames pipelined sealing
     encodes (one single-write-set mini-batch per committed write set,
     one empty EOF per node and epoch), plus the two halves of that call
     separately: Writeset.encode into a Codec.Enc, and Compress.compress
     of the resulting payload;
   - Epoch_merge.run on each epoch's csn-deduplicated union of every
     node's sealed batch, in epoch order, into a freshly loaded Db.

   Each layer's share of the run is its replayed time per call times the
   run's own call count, over the run's host time. The replay also
   checks itself: the merged Db must equal the replicas, and the replayed
   call counts must equal the counters the run kept. *)

module Writeset = Gg_crdt.Writeset
module Batch = Writeset.Batch
module Enc = Gg_util.Codec.Enc
module Compress = Gg_util.Compress
module Backup = Geogauss.Backup
module Epoch_merge = Geogauss.Epoch_merge
module Params = Geogauss.Params
module Txn = Geogauss.Txn
module Db = Gg_storage.Db
module Executor = Gg_sql.Executor

type t = {
  metrics : (string * float) list;
  coverage : (string * float) list;
      (** replayed count over the run's own count, per checked layer *)
  failures : string list;
}

let timed f =
  let t0 = Drive.now () in
  let r = f () in
  (r, Drive.now () -. t0)

let per = Drive.per

(* The frames pipelined sealing sends, rebuilt from the backup's sealed
   batches. *)
let frames backup ~nodes =
  let acc = ref [] in
  for node = 0 to nodes - 1 do
    for cen = 0 to Backup.last_sealed backup ~node do
      match Backup.get backup ~node ~cen with
      | None -> ()
      | Some b ->
        List.iter
          (fun ws ->
            acc := Batch.make ~node ~cen ~txns:[ ws ] ~eof:false () :: !acc)
          b.Batch.txns;
        acc :=
          Batch.make ~node ~cen ~txns:[] ~eof:true
            ~count:(List.length b.Batch.txns) ()
          :: !acc
    done
  done;
  List.rev !acc

(* The bytes [Batch.to_wire] compresses: the frame fields, then each
   write set's [Writeset.encode]. [run] checks the result against the
   real wire form, so a format change cannot skew the split silently. *)
let payload (b : Batch.t) =
  let enc = Enc.create () in
  Enc.varint enc b.Batch.node;
  Enc.varint enc b.Batch.cen;
  Enc.bool enc b.Batch.eof;
  Enc.varint enc b.Batch.count;
  Enc.varint enc (List.length b.Batch.txns);
  List.iter (Writeset.encode enc) b.Batch.txns;
  Enc.to_bytes enc

(* Wire frames carry an 8-byte span header ahead of the compressed
   payload. *)
let wire_payload wire = Bytes.sub wire 8 (Bytes.length wire - 8)

let csn_key (ws : Writeset.t) =
  let c = ws.Writeset.meta.Gg_crdt.Meta.csn in
  (c.Gg_storage.Csn.ts, c.Gg_storage.Csn.node)

let percentile_99 counts =
  match List.sort compare counts with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let rank = int_of_float (ceil (0.99 *. float_of_int (Array.length a))) in
    float_of_int a.(max 0 (rank - 1))

let run (w : Workload.t) (d : Drive.t) (p : Drive.probe) =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let params = w.params in
  let column = Params.effective_merge_level params = Params.Column in
  let nodes = Geogauss.Cluster.n_nodes d.cluster in
  let span_s = d.span_s in
  let requests = List.rev p.requests in
  let db = Db.create () in
  w.load db;
  (* Executors only read the database, so one fresh copy serves them and
     then the merge. *)
  let ops =
    List.filter_map (function Txn.Op_txn o -> Some o | _ -> None) requests
  in
  let (), op_s =
    timed (fun () ->
        List.iter
          (fun o -> ignore (Geogauss.Op_exec.exec ~col_mask:column db o))
          ops)
  in
  let sql_txns =
    List.filter_map
      (function Txn.Sql_txn { stmts; _ } -> Some stmts | _ -> None)
      requests
  in
  let n_stmts = List.fold_left (fun n s -> n + List.length s) 0 sql_txns in
  let parsed, parse_s =
    timed (fun () ->
        List.map
          (List.map (fun (sql, params) -> (Gg_sql.Parser.parse sql, params)))
          sql_txns)
  in
  let (), sql_exec_s =
    timed (fun () ->
        List.iter
          (fun stmts ->
            let ctx = Executor.Ctx.create ~track_cols:column db in
            List.iter
              (fun (ast, params) -> ignore (Executor.exec ctx ast ~params))
              stmts)
          parsed)
  in
  (* Write-set codec and compression. *)
  let backup = Geogauss.Cluster.backup d.cluster in
  let frames = frames backup ~nodes in
  let n_frames = List.length frames in
  let encodes_before = Batch.encode_count () in
  let (), to_wire_s =
    timed (fun () -> List.iter (fun b -> ignore (Batch.to_wire b)) frames)
  in
  if Batch.encode_count () - encodes_before <> n_frames then
    fail "replayed to_wire calls did not all encode";
  let payloads, encode_s = timed (fun () -> List.map payload frames) in
  let gc0 = Gc.quick_stat () in
  let compressed, compress_s =
    timed (fun () -> List.map Compress.compress payloads)
  in
  let gc1 = Gc.quick_stat () in
  if
    not
      (List.for_all2
         (fun b c -> Bytes.equal (wire_payload (Batch.to_wire b)) c)
         frames compressed)
  then fail "replayed payloads differ from the wire frames";
  if n_frames <> d.encodes then
    fail "to_wire calls: replayed %d, run encoded %d" n_frames d.encodes;
  (* Epoch merge. *)
  let last_cen = ref (-1) in
  for node = 0 to nodes - 1 do
    last_cen := max !last_cen (Backup.last_sealed backup ~node)
  done;
  let seen = Hashtbl.create 4096 in
  let merge_s = ref 0.0 and records = ref 0 in
  let committed = ref 0 and dead = ref 0 and per_epoch = ref [] in
  let ssi = params.Params.isolation = Params.SSI in
  let level = Params.effective_merge_level params in
  for cen = 0 to !last_cen do
    let txns =
      List.concat_map
        (fun node ->
          match Backup.get backup ~node ~cen with
          | None -> []
          | Some b ->
            List.filter
              (fun ws ->
                let k = csn_key ws in
                if Hashtbl.mem seen k then false
                else begin
                  Hashtbl.replace seen k ();
                  true
                end)
              b.Batch.txns)
        (List.init nodes Fun.id)
    in
    let m, s =
      timed (fun () -> Epoch_merge.run ~db ~jobs:1 ~ssi ~level txns)
    in
    merge_s := !merge_s +. s;
    records := !records + Epoch_merge.n_records m;
    committed := !committed + Epoch_merge.n_committed m;
    dead := !dead + Epoch_merge.n_dead m;
    per_epoch := Epoch_merge.n_records m :: !per_epoch
  done;
  (match d.digests with
  | replica :: _ when Db.digest db <> replica ->
    fail "replayed merge digest differs from the replicas"
  | _ -> ());
  if !records * nodes <> d.merged_records then
    fail "merged records x nodes: replayed %d, run merged %d"
      (!records * nodes) d.merged_records;
  let threshold = Params.default.Params.merge_par_threshold in
  let over =
    List.length (List.filter (fun r -> r >= threshold) !per_epoch)
  in
  (* Shares: replayed time per call x the run's call count / run time.
     A layer the workload never called reads exactly 0. *)
  let share calls s = if calls = 0 then 0.0 else s /. span_s in
  let codec_scale = per n_frames (float_of_int d.encodes) in
  let shares =
    [
      ("workload.share", share p.calls p.gen_s);
      ("op_exec.share", share (List.length ops) op_s);
      ("sql.share", share n_stmts (parse_s +. sql_exec_s));
      ("writeset.share", share d.encodes (encode_s *. codec_scale));
      ("compress.share", share d.encodes (compress_s *. codec_scale));
      ( "epoch_merge.share",
        share (!last_cen + 1) (!merge_s *. float_of_int nodes) );
    ]
  in
  let residual = List.fold_left (fun r (_, s) -> r -. s) 1.0 shares in
  let ns = 1e9 in
  let metrics =
    shares
    @ [
        ("layers.residual_share", residual);
        ("workload.gen_ns_per_txn", ns *. per p.calls p.gen_s);
        ("op_exec.ns_per_txn", ns *. per (List.length ops) op_s);
        ("sql.parse_ns_per_stmt", ns *. per n_stmts parse_s);
        ("sql.exec_ns_per_stmt", ns *. per n_stmts sql_exec_s);
        ("writeset.to_wire_calls", float_of_int d.encodes);
        ("writeset.encode_ns_per_call", ns *. per n_frames encode_s);
        ("writeset.to_wire_ns_per_call", ns *. per n_frames to_wire_s);
        ("compress.ns_per_call", ns *. per n_frames compress_s);
        ( "compress.major_words_per_call",
          per n_frames (gc1.Gc.major_words -. gc0.Gc.major_words) );
        ("epoch_merge.ns_per_record", ns *. per !records !merge_s);
        ( "epoch_merge.commit_ratio",
          per (!committed + !dead) (float_of_int !committed) );
        ("epoch_merge.epochs_over_par_threshold", float_of_int over);
        ("epoch_merge.records_per_epoch_p99", percentile_99 !per_epoch);
      ]
  in
  let ratio replayed run =
    if replayed = run then 1.0 else per run (float_of_int replayed)
  in
  let coverage =
    [
      ("writeset.to_wire_calls", ratio n_frames d.encodes);
      ("epoch_merge.records", ratio (!records * nodes) d.merged_records);
    ]
  in
  { metrics; coverage; failures = List.rev !failures }
