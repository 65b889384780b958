(* Tests for the CRDT layer: the Algorithm 2 merge rule and its ACI
   properties (the heart of the paper's correctness argument, Lemma 2),
   write-set serialization, and the Anna lattices. *)

open Gg_crdt
module Csn = Gg_storage.Csn
module Row_header = Gg_storage.Row_header
module Value = Gg_storage.Value

let meta ~sen ~cen ~ts ~node = Meta.make ~sen ~cen ~csn:(Csn.make ~ts ~node)

(* --- Meta ordering (Lemma 2) --- *)

let test_meta_shorter_wins () =
  let a = meta ~sen:3 ~cen:5 ~ts:10 ~node:0 in
  let b = meta ~sen:2 ~cen:5 ~ts:1 ~node:1 in
  (* a has larger sen: it started later, so it is shorter and wins. *)
  Alcotest.(check bool) "larger sen wins" true (Meta.wins_over a b);
  Alcotest.(check bool) "antisymmetric" false (Meta.wins_over b a)

let test_meta_first_write_wins () =
  let a = meta ~sen:4 ~cen:5 ~ts:10 ~node:0 in
  let b = meta ~sen:4 ~cen:5 ~ts:11 ~node:1 in
  Alcotest.(check bool) "smaller csn wins" true (Meta.wins_over a b);
  Alcotest.(check bool) "antisymmetric" false (Meta.wins_over b a)

let test_meta_node_tiebreak () =
  let a = meta ~sen:4 ~cen:5 ~ts:10 ~node:0 in
  let b = meta ~sen:4 ~cen:5 ~ts:10 ~node:1 in
  Alcotest.(check bool) "node id breaks ties" true (Meta.wins_over a b)

let test_meta_cross_epoch_rejected () =
  let a = meta ~sen:1 ~cen:5 ~ts:1 ~node:0 in
  let b = meta ~sen:1 ~cen:6 ~ts:2 ~node:1 in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Meta.wins_over a b);
       false
     with Invalid_argument _ -> true)

let test_meta_strict_total_order () =
  (* Any two distinct metas of an epoch are strictly ordered. *)
  let metas =
    List.concat_map
      (fun sen ->
        List.concat_map
          (fun ts -> List.map (fun node -> meta ~sen ~cen:9 ~ts ~node) [ 0; 1; 2 ])
          [ 1; 2 ])
      [ 7; 8; 9 ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if not (Meta.equal a b) then
            Alcotest.(check bool)
              (Printf.sprintf "total: %s vs %s" (Meta.to_string a) (Meta.to_string b))
              true
              (Meta.wins_over a b <> Meta.wins_over b a))
        metas)
    metas

(* --- Merge rule (Algorithm 2) --- *)

let fresh_header () = Row_header.create ()

let test_merge_empty_epoch_wins () =
  let h = fresh_header () in
  let m = meta ~sen:3 ~cen:4 ~ts:10 ~node:1 in
  (match Merge.merge_header h ~meta:m with
  | Merge.Win -> ()
  | _ -> Alcotest.fail "first pre-write must win");
  Alcotest.(check int) "sen stamped" 3 h.Row_header.sen;
  Alcotest.(check int) "cen stamped" 4 h.Row_header.cen;
  Alcotest.(check bool) "csn stamped" true (Csn.equal h.Row_header.csn (Csn.make ~ts:10 ~node:1))

let test_merge_shorter_txn_wins () =
  let h = fresh_header () in
  let long_txn = meta ~sen:1 ~cen:5 ~ts:3 ~node:0 in
  let short_txn = meta ~sen:5 ~cen:5 ~ts:9 ~node:1 in
  ignore (Merge.merge_header h ~meta:long_txn);
  (match Merge.merge_header h ~meta:short_txn with
  | Merge.Win -> ()
  | _ -> Alcotest.fail "shorter transaction must win");
  (* And the loser, replayed, stays a loser. *)
  match Merge.merge_header h ~meta:long_txn with
  | Merge.Lose -> ()
  | _ -> Alcotest.fail "longer transaction must lose"

let test_merge_first_write_wins_same_sen () =
  let h = fresh_header () in
  let first = meta ~sen:5 ~cen:5 ~ts:5 ~node:0 in
  let second = meta ~sen:5 ~cen:5 ~ts:8 ~node:1 in
  ignore (Merge.merge_header h ~meta:second);
  (match Merge.merge_header h ~meta:first with
  | Merge.Win -> ()
  | _ -> Alcotest.fail "earlier csn must win");
  match Merge.merge_header h ~meta:second with
  | Merge.Lose -> ()
  | _ -> Alcotest.fail "later csn must lose"

let test_merge_idempotent_same_txn () =
  let h = fresh_header () in
  let m = meta ~sen:5 ~cen:5 ~ts:5 ~node:0 in
  ignore (Merge.merge_header h ~meta:m);
  match Merge.merge_header h ~meta:m with
  | Merge.Already -> ()
  | Merge.Win -> Alcotest.fail "should be Already, not Win"
  | Merge.Lose -> Alcotest.fail "retransmission must not abort its own txn"

let test_merge_cross_epoch_precondition () =
  let h = fresh_header () in
  ignore (Merge.merge_header h ~meta:(meta ~sen:5 ~cen:5 ~ts:5 ~node:0));
  Alcotest.(check bool) "row.cen > T.cen rejected" true
    (try
       ignore (Merge.merge_header h ~meta:(meta ~sen:4 ~cen:4 ~ts:4 ~node:1));
       false
     with Invalid_argument _ -> true)

let test_merge_next_epoch_overwrites () =
  let h = fresh_header () in
  ignore (Merge.merge_header h ~meta:(meta ~sen:5 ~cen:5 ~ts:5 ~node:0));
  match Merge.merge_header h ~meta:(meta ~sen:2 ~cen:6 ~ts:6 ~node:1) with
  | Merge.Win -> Alcotest.(check int) "cen advanced" 6 h.Row_header.cen
  | _ -> Alcotest.fail "new epoch always overwrites"

(* Property: the final header state after merging any permutation (with
   duplicates) of an epoch's updates equals the Lemma 2 winner. *)

let gen_metas =
  QCheck.Gen.(
    let cen = 10 in
    list_size (int_range 1 8)
      (map3
         (fun sen ts node -> meta ~sen:(1 + sen) ~cen ~ts:(1 + ts) ~node)
         (int_range 0 9) (int_range 0 99) (int_range 0 4)))

(* csns must be globally unique: dedup by csn. *)
let dedup_by_csn metas =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun (m : Meta.t) ->
      let k = (m.csn.Csn.ts, m.csn.Csn.node) in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    metas

let lemma2_winner metas =
  List.fold_left
    (fun best m ->
      match best with
      | None -> Some m
      | Some b -> if Meta.wins_over m b then Some m else Some b)
    None metas

let apply_all metas =
  let h = fresh_header () in
  List.iter (fun m -> ignore (Merge.merge_header h ~meta:m)) metas;
  h

let prop_merge_order_independent =
  QCheck.Test.make ~name:"merge is order independent (commutative)" ~count:500
    (QCheck.make gen_metas) (fun metas ->
      let metas = dedup_by_csn metas in
      QCheck.assume (metas <> []);
      let shuffled =
        let a = Array.of_list metas in
        let rng = Gg_util.Rng.create (List.length metas) in
        Gg_util.Rng.shuffle rng a;
        Array.to_list a
      in
      let h1 = apply_all metas and h2 = apply_all shuffled in
      Csn.equal h1.Row_header.csn h2.Row_header.csn
      && h1.Row_header.sen = h2.Row_header.sen)

let prop_merge_idempotent =
  QCheck.Test.make ~name:"merge is idempotent (duplicates harmless)" ~count:500
    (QCheck.make gen_metas) (fun metas ->
      let metas = dedup_by_csn metas in
      QCheck.assume (metas <> []);
      let h1 = apply_all metas in
      let h2 = apply_all (metas @ metas @ List.rev metas) in
      Csn.equal h1.Row_header.csn h2.Row_header.csn)

let prop_merge_matches_lemma2 =
  QCheck.Test.make ~name:"merge winner matches Lemma 2 total order" ~count:500
    (QCheck.make gen_metas) (fun metas ->
      let metas = dedup_by_csn metas in
      QCheck.assume (metas <> []);
      let h = apply_all metas in
      match lemma2_winner metas with
      | None -> false
      | Some w -> Csn.equal h.Row_header.csn w.Meta.csn)

let prop_merge_associative_partial =
  (* Associativity: merging updates in two chunks equals merging all at
     once (partial merges allowed). *)
  QCheck.Test.make ~name:"merge is associative (partial batches)" ~count:500
    (QCheck.make QCheck.Gen.(pair gen_metas gen_metas))
    (fun (ma, mb) ->
      let all = dedup_by_csn (ma @ mb) in
      QCheck.assume (all <> []);
      let h1 = apply_all all in
      let h2 = fresh_header () in
      let n = List.length all / 2 in
      let chunk1 = List.filteri (fun i _ -> i < n) all in
      let chunk2 = List.filteri (fun i _ -> i >= n) all in
      List.iter (fun m -> ignore (Merge.merge_header h2 ~meta:m)) chunk1;
      List.iter (fun m -> ignore (Merge.merge_header h2 ~meta:m)) chunk2;
      Csn.equal h1.Row_header.csn h2.Row_header.csn)

(* --- Full write-set ACI under a hand-rolled seeded generator ---

   The QCheck properties above exercise single-row header merges. These
   drive whole write sets — several rows per transaction, inserts,
   updates and deletes — through the reference model's header join
   ([Gg_check.Merge_model.join_headers]: the join of the records'
   claims decides each row's winner, and the winning record's op decides
   the tombstone). The chaos checker's ACI oracle joins live traffic
   with the same function; here we pin it down on adversarial synthetic
   epochs, seeded so failures reproduce. *)

module Rng = Gg_util.Rng

let gen_epoch_writesets rng ~cen ~n =
  List.init n (fun i ->
      let sen = 1 + Rng.int rng cen in
      (* ts unique per write set => globally unique csns. *)
      let m = meta ~sen ~cen ~ts:(100 + i) ~node:(Rng.int rng 5) in
      let n_rows = 1 + Rng.int rng 3 in
      let keys =
        List.sort_uniq compare (List.init n_rows (fun _ -> Rng.int rng 8))
      in
      let records =
        List.map
          (fun k ->
            let op =
              match Rng.int rng 4 with
              | 0 -> Writeset.Insert
              | 1 -> Writeset.Delete
              | _ -> Writeset.Update
            in
            let data =
              if op = Writeset.Delete then [||]
              else [| Value.Int k; Value.Int (Rng.int rng 1000) |]
            in
            Writeset.make_record ~table:"t" ~key:[| Value.Int k |] ~op ~data ())
          keys
      in
      Writeset.make ~meta:m ~records ())

let replay_state wss =
  Gg_check.Merge_model.(Rows.bindings (join_headers wss))
  |> List.map (fun ((tbl, key), (c : Column.claim)) ->
         let m = c.Column.c_meta in
         (tbl, key, m.Meta.sen, m.Meta.csn.Csn.ts, m.Meta.csn.Csn.node, c.Column.c_delete))

let shuffled rng l =
  let a = Array.of_list l in
  Rng.shuffle rng a;
  Array.to_list a

let test_ws_replay_commutative () =
  let rng = Rng.create 0xC0FFEE in
  for _ = 1 to 200 do
    let wss = gen_epoch_writesets rng ~cen:10 ~n:(1 + Rng.int rng 8) in
    let reference = replay_state wss in
    Alcotest.(check bool) "any delivery order, same state" true
      (replay_state (shuffled rng wss) = reference)
  done

let test_ws_replay_idempotent () =
  let rng = Rng.create 0xD0D0 in
  for _ = 1 to 200 do
    let wss = gen_epoch_writesets rng ~cen:10 ~n:(1 + Rng.int rng 8) in
    let reference = replay_state wss in
    (* Every write set retransmitted, in a different order. *)
    Alcotest.(check bool) "duplicates absorbed" true
      (replay_state (wss @ shuffled rng wss) = reference)
  done

let test_ws_replay_grouping_independent () =
  (* Associativity in state-based form: delivering the epoch in any two
     mini-batches (each internally shuffled, boundary arbitrary) ends in
     the same state as one batch. *)
  let rng = Rng.create 0xABBA in
  for _ = 1 to 200 do
    let wss = gen_epoch_writesets rng ~cen:10 ~n:(2 + Rng.int rng 8) in
    let reference = replay_state wss in
    let cut = 1 + Rng.int rng (List.length wss - 1) in
    let chunk1 = shuffled rng (List.filteri (fun i _ -> i < cut) wss) in
    let chunk2 = shuffled rng (List.filteri (fun i _ -> i >= cut) wss) in
    Alcotest.(check bool) "chunked = whole" true
      (replay_state (chunk1 @ chunk2) = reference)
  done

let test_ws_tombstone_race_deterministic () =
  (* A delete and an update race on one row in one epoch: the Lemma 2
     winner decides the tombstone, independent of order, and replaying
     the loser afterwards changes nothing. *)
  let row k op data =
    Writeset.make_record ~table:"t" ~key:[| Value.Int k |] ~op ~data ()
  in
  let del =
    Writeset.make
      ~meta:(meta ~sen:5 ~cen:7 ~ts:10 ~node:0)
      ~records:[ row 1 Writeset.Delete [||] ]
      ()
  in
  let upd =
    Writeset.make
      ~meta:(meta ~sen:5 ~cen:7 ~ts:11 ~node:1)
      ~records:[ row 1 Writeset.Update [| Value.Int 1; Value.Int 9 |] ]
      ()
  in
  let s1 = replay_state [ del; upd ] in
  let s2 = replay_state [ upd; del ] in
  Alcotest.(check bool) "order-independent" true (s1 = s2);
  (match s1 with
  | [ (_, _, _, ts, _, deleted) ] ->
    Alcotest.(check int) "delete (smaller csn) wins" 10 ts;
    Alcotest.(check bool) "row tombstoned" true deleted
  | _ -> Alcotest.fail "one row expected");
  Alcotest.(check bool) "losing update re-delivered is a no-op" true
    (replay_state [ del; upd; upd ] = s1)

let test_lww_map_aci_seeded () =
  (* Seeded whole-map ACI: merge of random Lww_maps is commutative,
     associative and idempotent. Values derive from (ts, node) so the
     stamp uniquely identifies the write. *)
  let open Lattice in
  let rng = Rng.create 0xFACADE in
  let gen_map () =
    let n = 1 + Rng.int rng 6 in
    let m = ref Lww_map.empty in
    for _ = 1 to n do
      let ts = Rng.int rng 50 and node = Rng.int rng 4 in
      let key = Printf.sprintf "k%d" (Rng.int rng 4) in
      m :=
        Lww_map.set !m ~key
          (Lww.make ~ts ~node ~value:(Printf.sprintf "%d-%d" ts node))
    done;
    !m
  in
  for _ = 1 to 200 do
    let a = gen_map () and b = gen_map () and c = gen_map () in
    Alcotest.(check bool) "commutative" true
      (Lww_map.equal (Lww_map.merge a b) (Lww_map.merge b a));
    Alcotest.(check bool) "associative" true
      (Lww_map.equal
         (Lww_map.merge (Lww_map.merge a b) c)
         (Lww_map.merge a (Lww_map.merge b c)));
    Alcotest.(check bool) "idempotent" true
      (Lww_map.equal (Lww_map.merge a a) a)
  done

(* --- Writeset serialization --- *)

let sample_ws () =
  let records =
    [
      Writeset.make_record ~table:"accounts" ~key:[| Value.Int 7 |]
        ~op:Writeset.Update
        ~data:[| Value.Int 7; Value.Str "bob"; Value.Int 250 |]
        ();
      Writeset.make_record ~table:"orders"
        ~key:[| Value.Int 1; Value.Int 2 |]
        ~op:Writeset.Insert
        ~data:[| Value.Int 1; Value.Int 2; Value.Str "widget" |]
        ();
      Writeset.make_record ~table:"orders"
        ~key:[| Value.Int 9; Value.Int 9 |]
        ~op:Writeset.Delete ~data:[||] ();
    ]
  in
  Writeset.make ~meta:(meta ~sen:3 ~cen:4 ~ts:100 ~node:2) ~records ()

let test_writeset_roundtrip () =
  let ws = sample_ws () in
  let enc = Gg_util.Codec.Enc.create () in
  Writeset.encode enc ws;
  let dec = Gg_util.Codec.Dec.of_bytes (Gg_util.Codec.Enc.to_bytes enc) in
  let ws' = Writeset.decode dec in
  Alcotest.(check bool) "meta" true (Meta.equal ws.Writeset.meta ws'.Writeset.meta);
  Alcotest.(check int) "records" 3 (List.length ws'.Writeset.records);
  List.iter2
    (fun (a : Writeset.record) (b : Writeset.record) ->
      Alcotest.(check string) "table" a.table b.table;
      Alcotest.(check bool) "op" true (a.op = b.op);
      Alcotest.(check string) "key" (Writeset.key_str a) (Writeset.key_str b);
      Alcotest.(check int) "data arity" (Array.length a.data) (Array.length b.data))
    ws.Writeset.records ws'.Writeset.records

let test_batch_wire_roundtrip () =
  let batch =
    Writeset.Batch.make ~node:1 ~cen:4 ~txns:[ sample_ws (); sample_ws () ]
      ~eof:true ()
  in
  let wire = Writeset.Batch.to_wire batch in
  let batch' = Writeset.Batch.of_wire wire in
  Alcotest.(check int) "node" 1 batch'.Writeset.Batch.node;
  Alcotest.(check int) "cen" 4 batch'.Writeset.Batch.cen;
  Alcotest.(check bool) "eof" true batch'.Writeset.Batch.eof;
  Alcotest.(check int) "txns" 2 (List.length batch'.Writeset.Batch.txns)

let test_batch_empty_message () =
  (* The empty-epoch EOF message of §4.2.3. *)
  let batch = Writeset.Batch.make ~node:2 ~cen:9 ~txns:[] ~eof:true () in
  let batch' = Writeset.Batch.of_wire (Writeset.Batch.to_wire batch) in
  Alcotest.(check int) "no txns" 0 (List.length batch'.Writeset.Batch.txns);
  Alcotest.(check bool) "small on wire" true (Writeset.Batch.wire_size batch < 64)

let test_batch_compression_effective () =
  (* Many similar rows should compress well below the raw encoding. *)
  let records =
    List.init 200 (fun i ->
        Writeset.make_record ~table:"ycsb_main" ~key:[| Value.Int i |]
          ~op:Writeset.Update
          ~data:(Array.init 10 (fun c -> Value.Str (Printf.sprintf "field%d" c)))
          ())
  in
  let ws = Writeset.make ~meta:(meta ~sen:1 ~cen:1 ~ts:1 ~node:0) ~records () in
  let raw = Writeset.encoded_size ws in
  let batch = Writeset.Batch.make ~node:0 ~cen:1 ~txns:[ ws ] ~eof:true () in
  let wire = Writeset.Batch.wire_size batch in
  Alcotest.(check bool)
    (Printf.sprintf "compressed %d < raw %d / 3" wire raw)
    true
    (wire < raw / 3)

let test_decoded_key_cache_matches () =
  (* A decoded record arrives with its key encoding pre-cached from the
     wire span; it must equal a from-scratch [Value.encode_key]. *)
  let ws = sample_ws () in
  let enc = Gg_util.Codec.Enc.create () in
  Writeset.encode enc ws;
  let dec = Gg_util.Codec.Dec.of_bytes (Gg_util.Codec.Enc.to_bytes enc) in
  let ws' = Writeset.decode dec in
  List.iter
    (fun (r : Writeset.record) ->
      Alcotest.(check bool) "cache populated at decode" true (r.key_enc <> "");
      Alcotest.(check string) "cached = fresh encode" (Value.encode_key r.key)
        (Writeset.key_str r))
    ws'.Writeset.records

let test_key_cache_lazy_and_seeded () =
  (* Lazily built on first use... *)
  let r =
    Writeset.make_record ~table:"t" ~key:[| Value.Int 3 |] ~op:Writeset.Update
      ~data:[| Value.Int 3 |] ()
  in
  Alcotest.(check string) "starts empty" "" r.Writeset.key_enc;
  Alcotest.(check string) "computed" (Value.encode_key r.key) (Writeset.key_str r);
  Alcotest.(check bool) "cached after use" true (r.Writeset.key_enc <> "");
  (* ...and trusted when the constructor seeds it. *)
  let pre = Value.encode_key [| Value.Int 3 |] in
  let r' =
    Writeset.make_record ~key_str:pre ~table:"t" ~key:[| Value.Int 3 |]
      ~op:Writeset.Update ~data:[| Value.Int 3 |] ()
  in
  Alcotest.(check string) "seed used as-is" pre (Writeset.key_str r')

let test_wire_size_matches_wire () =
  let full =
    Writeset.Batch.make ~node:1 ~cen:4 ~txns:[ sample_ws (); sample_ws () ]
      ~eof:true ()
  in
  Alcotest.(check int) "full batch"
    (Bytes.length (Writeset.Batch.to_wire full))
    (Writeset.Batch.wire_size full);
  (* Count-only EOF marker, as sent after pipelined mini-batches. *)
  let eof_only = Writeset.Batch.make ~node:0 ~cen:7 ~txns:[] ~eof:true ~count:5 () in
  Alcotest.(check int) "count-only EOF batch"
    (Bytes.length (Writeset.Batch.to_wire eof_only))
    (Writeset.Batch.wire_size eof_only);
  let eof' = Writeset.Batch.of_wire (Writeset.Batch.to_wire eof_only) in
  Alcotest.(check int) "count survives" 5 eof'.Writeset.Batch.count

let test_wire_cache_single_encode () =
  let batch = Writeset.Batch.make ~node:0 ~cen:1 ~txns:[ sample_ws () ] ~eof:true () in
  Writeset.Batch.reset_encode_count ();
  let w1 = Writeset.Batch.to_wire batch in
  ignore (Writeset.Batch.wire_size batch);
  let w2 = Writeset.Batch.to_wire batch in
  Alcotest.(check bool) "same bytes object" true (w1 == w2);
  Alcotest.(check int) "one encode pass" 1 (Writeset.Batch.encode_count ());
  (* of_wire keeps the input as the decoded batch's cached wire form. *)
  let batch' = Writeset.Batch.of_wire w1 in
  ignore (Writeset.Batch.wire_size batch');
  Alcotest.(check int) "decode side re-encodes nothing" 1
    (Writeset.Batch.encode_count ())

let test_batch_corrupt_rejected () =
  Alcotest.(check bool) "corrupt" true
    (try
       ignore (Writeset.Batch.of_wire (Bytes.of_string "nonsense"));
       false
     with Invalid_argument _ -> true)

let test_batch_forged_length_dropped () =
  (* A frame claiming a 2^56-byte payload: the decoder must reject the
     prefix before allocating for it, so the frame is dropped instead of
     escaping as [Out_of_memory]. *)
  let enc = Gg_util.Codec.Enc.create () in
  Gg_util.Codec.Enc.raw enc (String.make 8 '\000') (* untraced span header *);
  Gg_util.Codec.Enc.varint enc (1 lsl 56);
  Gg_util.Codec.Enc.raw enc "\000x\000y";
  Alcotest.(check bool) "forged prefix decodes to None" true
    (Option.is_none
       (Writeset.Batch.of_wire_opt (Gg_util.Codec.Enc.to_bytes enc)))

(* --- Column-level lattice (DESIGN.md §13) --- *)

(* Value derived from the full meta, so equal metas carry equal values
   and the join stays a function of the stamp alone. *)
let col_cell ~sen ~ts ~node =
  Column.cell ~meta:(meta ~sen ~cen:10 ~ts ~node) (Value.Int ((sen * 10_000) + (ts * 10) + node))

let gen_cells =
  QCheck.Gen.(
    map3
      (fun sen ts node -> col_cell ~sen:(1 + sen) ~ts:(1 + ts) ~node)
      (int_range 0 9) (int_range 0 99) (int_range 0 4))

let prop_column_join_aci =
  QCheck.Test.make ~name:"column cell join is ACI" ~count:500
    (QCheck.make QCheck.Gen.(triple gen_cells gen_cells gen_cells))
    (fun (a, b, c) ->
      let open Column in
      join a b = join b a
      && join (join a b) c = join a (join b c)
      && join a a = a)

let prop_column_claim_aci_matches_row_order =
  (* The claim join must be ACI and pick exactly the row header's
     Lemma 2 winner — claim winner = header winner is what makes the
     column kernel's phase B agree with phase A's stamping. *)
  let gen_claim =
    QCheck.Gen.(
      map
        (fun ((sen, ts), (node, del)) ->
          Column.claim ~meta:(meta ~sen:(1 + sen) ~cen:10 ~ts:(1 + ts) ~node) ~delete:del)
        (pair (pair (int_range 0 9) (int_range 0 99)) (pair (int_range 0 4) bool)))
  in
  QCheck.Test.make ~name:"claim join is ACI and matches Lemma 2" ~count:500
    (QCheck.make QCheck.Gen.(list_size (int_range 1 8) gen_claim))
    (fun claims ->
      (* csns must be unique for the order to be total: dedup. *)
      let claims =
        let seen = Hashtbl.create 16 in
        List.filter
          (fun (c : Column.claim) ->
            let k = (c.c_meta.Meta.csn.Csn.ts, c.c_meta.Meta.csn.Csn.node) in
            if Hashtbl.mem seen k then false
            else (Hashtbl.add seen k (); true))
          claims
      in
      QCheck.assume (claims <> []);
      let joined =
        List.fold_left
          (fun acc c -> Some (Column.claim_join_opt acc c))
          None claims
      in
      let winner = lemma2_winner (List.map (fun (c : Column.claim) -> c.Column.c_meta) claims) in
      let ok_winner =
        match (joined, winner) with
        | Some j, Some w -> Meta.equal j.Column.c_meta w
        | _ -> false
      in
      let ok_aci =
        match claims with
        | a :: b :: _ ->
          Column.claim_join a b = Column.claim_join b a
          && Column.claim_join a a = a
        | _ -> true
      in
      ok_winner && ok_aci)

let test_column_tombstone_vs_update_race () =
  (* Same race as the row-level tombstone test, at claim granularity:
     whichever side wins the epoch order decides the whole row's fate. *)
  let del = Column.claim ~meta:(meta ~sen:5 ~cen:7 ~ts:10 ~node:0) ~delete:true in
  let upd = Column.claim ~meta:(meta ~sen:5 ~cen:7 ~ts:11 ~node:1) ~delete:false in
  let j1 = Column.claim_join del upd and j2 = Column.claim_join upd del in
  Alcotest.(check bool) "order-independent" true (j1 = j2);
  Alcotest.(check bool) "delete (smaller csn) wins" true j1.Column.c_delete;
  (* Flip the order: a shorter update beats the delete. *)
  let upd' = Column.claim ~meta:(meta ~sen:6 ~cen:7 ~ts:12 ~node:1) ~delete:false in
  Alcotest.(check bool) "shorter update survives" false
    (Column.claim_join del upd').Column.c_delete

let test_column_mask_ops () =
  Alcotest.(check bool) "full covers all" true (Column.covers ~cols:Column.full 61);
  let m = Column.union (Column.of_index 1) (Column.of_index 3) in
  Alcotest.(check bool) "covers 1" true (Column.covers ~cols:m 1);
  Alcotest.(check bool) "not 2" false (Column.covers ~cols:m 2);
  Alcotest.(check bool) "full absorbs" true
    (Column.union m Column.full = Column.full);
  Alcotest.(check bool) "out of range is full" true
    (Column.of_index Column.max_mask_cols = Column.full)

let masked_ws () =
  let r =
    Writeset.make_record ~table:"t" ~key:[| Value.Int 1 |] ~op:Writeset.Update
      ~cols:(Column.union (Column.of_index 1) (Column.of_index 3))
      ~data:[| Value.Int 1; Value.Str "b"; Value.Int 99; Value.Int 7; Value.Null |]
      ()
  in
  Writeset.make ~meta:(meta ~sen:2 ~cen:3 ~ts:50 ~node:1) ~records:[ r ] ()

let encode_bytes ws =
  let enc = Gg_util.Codec.Enc.create () in
  Writeset.encode enc ws;
  Gg_util.Codec.Enc.to_bytes enc

let test_masked_record_roundtrip () =
  let ws = masked_ws () in
  let b1 = encode_bytes ws in
  let ws' = Writeset.decode (Gg_util.Codec.Dec.of_bytes b1) in
  (match ws'.Writeset.records with
  | [ r ] ->
    Alcotest.(check bool) "mask survives" true
      (r.Writeset.cols = Column.union (Column.of_index 1) (Column.of_index 3));
    Alcotest.(check int) "arity survives" 5 (Array.length r.Writeset.data);
    Alcotest.(check bool) "covered col 1" true (r.Writeset.data.(1) = Value.Str "b");
    Alcotest.(check bool) "covered col 3" true (r.Writeset.data.(3) = Value.Int 7);
    Alcotest.(check bool) "uncovered are Null placeholders" true
      (r.Writeset.data.(0) = Value.Null && r.Writeset.data.(2) = Value.Null)
  | _ -> Alcotest.fail "one record expected");
  (* Byte stability: re-encoding the decoded form reproduces the wire
     bytes exactly (replicas re-disseminate what they decoded). *)
  Alcotest.(check bool) "re-encode is byte-identical" true
    (Bytes.equal b1 (encode_bytes ws'))

let test_full_mask_stream_unchanged () =
  (* A row-level record (cols = full) must encode exactly as it did
     before masks existed: the default-cols constructor and an explicit
     full mask produce byte-identical streams, with no masked tag. *)
  let mk ?cols () =
    let r =
      Writeset.make_record ?cols ~table:"t" ~key:[| Value.Int 1 |]
        ~op:Writeset.Update
        ~data:[| Value.Int 1; Value.Str "x" |]
        ()
    in
    Writeset.make ~meta:(meta ~sen:1 ~cen:2 ~ts:9 ~node:0) ~records:[ r ] ()
  in
  let b_default = encode_bytes (mk ()) in
  let b_full = encode_bytes (mk ~cols:Column.full ()) in
  Alcotest.(check bool) "default = explicit full" true (Bytes.equal b_default b_full);
  let ws' = Writeset.decode (Gg_util.Codec.Dec.of_bytes b_default) in
  match ws'.Writeset.records with
  | [ r ] -> Alcotest.(check bool) "decodes to full" true (r.Writeset.cols = Column.full)
  | _ -> Alcotest.fail "one record expected"

(* --- Lattices --- *)

let test_lww_merge () =
  let open Lattice in
  let a = Lww.make ~ts:5 ~node:0 ~value:"a" in
  let b = Lww.make ~ts:7 ~node:1 ~value:"b" in
  Alcotest.(check bool) "later wins" true (Lww.equal (Lww.merge a b) b);
  Alcotest.(check bool) "commutative" true (Lww.equal (Lww.merge a b) (Lww.merge b a));
  let c = Lww.make ~ts:5 ~node:1 ~value:"c" in
  Alcotest.(check bool) "node tiebreak" true (Lww.equal (Lww.merge a c) c)

let test_lww_map_merge () =
  let open Lattice in
  let m1 = Lww_map.set Lww_map.empty ~key:"x" (Lww.make ~ts:1 ~node:0 ~value:"1") in
  let m1 = Lww_map.set m1 ~key:"y" (Lww.make ~ts:2 ~node:0 ~value:"2") in
  let m2 = Lww_map.set Lww_map.empty ~key:"x" (Lww.make ~ts:3 ~node:1 ~value:"3") in
  let m = Lww_map.merge m1 m2 in
  Alcotest.(check int) "two keys" 2 (Lww_map.cardinal m);
  (match Lww_map.get m ~key:"x" with
  | Some v -> Alcotest.(check string) "newest x" "3" v.Lattice.Lww.value
  | None -> Alcotest.fail "x missing");
  Alcotest.(check bool) "commutative" true
    (Lww_map.equal m (Lww_map.merge m2 m1))

let test_lww_map_delta () =
  let open Lattice in
  let m = Lww_map.set Lww_map.empty ~key:"old" (Lww.make ~ts:1 ~node:0 ~value:"o") in
  let m = Lww_map.set m ~key:"new" (Lww.make ~ts:10 ~node:0 ~value:"n") in
  let d = Lww_map.delta m ~since:5 in
  Alcotest.(check int) "delta has only new" 1 (Lww_map.cardinal d)

let test_gset () =
  let open Lattice in
  let a = Gset.add "x" (Gset.singleton "y") in
  let b = Gset.singleton "z" in
  let m = Gset.merge a b in
  Alcotest.(check int) "union" 3 (Gset.cardinal m);
  Alcotest.(check bool) "mem" true (Gset.mem "x" m)

let prop_lww_aci =
  (* (ts, node) must uniquely identify a write for LWW to be a lattice,
     so derive the value from the stamp. *)
  let gen =
    QCheck.Gen.(
      map2
        (fun ts node ->
          Lattice.Lww.make ~ts ~node ~value:(Printf.sprintf "%d-%d" ts node))
        (int_range 0 100) (int_range 0 5))
  in
  QCheck.Test.make ~name:"lww merge is ACI" ~count:500
    (QCheck.make QCheck.Gen.(triple gen gen gen))
    (fun (a, b, c) ->
      let open Lattice.Lww in
      equal (merge a b) (merge b a)
      && equal (merge (merge a b) c) (merge a (merge b c))
      && equal (merge a a) a)

let () =
  Alcotest.run "gg_crdt"
    [
      ( "meta",
        [
          Alcotest.test_case "shorter wins" `Quick test_meta_shorter_wins;
          Alcotest.test_case "first write wins" `Quick test_meta_first_write_wins;
          Alcotest.test_case "node tiebreak" `Quick test_meta_node_tiebreak;
          Alcotest.test_case "cross-epoch rejected" `Quick test_meta_cross_epoch_rejected;
          Alcotest.test_case "strict total order" `Quick test_meta_strict_total_order;
        ] );
      ( "merge",
        [
          Alcotest.test_case "fresh row wins" `Quick test_merge_empty_epoch_wins;
          Alcotest.test_case "shorter txn wins" `Quick test_merge_shorter_txn_wins;
          Alcotest.test_case "first write wins" `Quick test_merge_first_write_wins_same_sen;
          Alcotest.test_case "idempotent retransmit" `Quick test_merge_idempotent_same_txn;
          Alcotest.test_case "epoch precondition" `Quick test_merge_cross_epoch_precondition;
          Alcotest.test_case "next epoch overwrites" `Quick test_merge_next_epoch_overwrites;
          QCheck_alcotest.to_alcotest prop_merge_order_independent;
          QCheck_alcotest.to_alcotest prop_merge_idempotent;
          QCheck_alcotest.to_alcotest prop_merge_matches_lemma2;
          QCheck_alcotest.to_alcotest prop_merge_associative_partial;
        ] );
      ( "writeset merge (seeded)",
        [
          Alcotest.test_case "commutative" `Quick test_ws_replay_commutative;
          Alcotest.test_case "idempotent" `Quick test_ws_replay_idempotent;
          Alcotest.test_case "grouping independent" `Quick test_ws_replay_grouping_independent;
          Alcotest.test_case "tombstone race deterministic" `Quick test_ws_tombstone_race_deterministic;
          Alcotest.test_case "lww map ACI (seeded)" `Quick test_lww_map_aci_seeded;
        ] );
      ( "writeset",
        [
          Alcotest.test_case "roundtrip" `Quick test_writeset_roundtrip;
          Alcotest.test_case "batch wire roundtrip" `Quick test_batch_wire_roundtrip;
          Alcotest.test_case "empty epoch message" `Quick test_batch_empty_message;
          Alcotest.test_case "compression effective" `Quick test_batch_compression_effective;
          Alcotest.test_case "decoded key cache" `Quick test_decoded_key_cache_matches;
          Alcotest.test_case "key cache lazy + seeded" `Quick test_key_cache_lazy_and_seeded;
          Alcotest.test_case "wire_size = |to_wire|" `Quick test_wire_size_matches_wire;
          Alcotest.test_case "wire cache single encode" `Quick test_wire_cache_single_encode;
          Alcotest.test_case "corrupt rejected" `Quick test_batch_corrupt_rejected;
          Alcotest.test_case "forged length prefix dropped" `Quick
            test_batch_forged_length_dropped;
        ] );
      ( "column",
        [
          QCheck_alcotest.to_alcotest prop_column_join_aci;
          QCheck_alcotest.to_alcotest prop_column_claim_aci_matches_row_order;
          Alcotest.test_case "tombstone vs update race" `Quick
            test_column_tombstone_vs_update_race;
          Alcotest.test_case "mask operations" `Quick test_column_mask_ops;
          Alcotest.test_case "masked record roundtrip bytes" `Quick
            test_masked_record_roundtrip;
          Alcotest.test_case "full-mask stream unchanged" `Quick
            test_full_mask_stream_unchanged;
        ] );
      ( "lattice",
        [
          Alcotest.test_case "lww merge" `Quick test_lww_merge;
          Alcotest.test_case "lww map merge" `Quick test_lww_map_merge;
          Alcotest.test_case "lww map delta" `Quick test_lww_map_delta;
          Alcotest.test_case "gset" `Quick test_gset;
          QCheck_alcotest.to_alcotest prop_lww_aci;
        ] );
    ]
