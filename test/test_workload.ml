(* Tests for the YCSB and TPC-C workload generators. *)

open Gg_workload
module Value = Gg_storage.Value

(* --- Op --- *)

let test_op_classification () =
  let t =
    Op.make
      [
        Op.Read { table = "t"; key = [| Value.Int 1 |] };
        Op.Add { table = "t"; key = [| Value.Int 2 |]; col = 1; delta = 5 };
      ]
  in
  Alcotest.(check bool) "not read only" false (Op.is_read_only t);
  Alcotest.(check int) "ops" 2 (Op.n_ops t);
  Alcotest.(check int) "writes" 1 (Op.n_writes t);
  let ro = Op.make [ Op.Read { table = "t"; key = [| Value.Int 1 |] } ] in
  Alcotest.(check bool) "read only" true (Op.is_read_only ro)

let test_op_write_size () =
  let t =
    Op.make
      [
        Op.Write
          {
            table = "t";
            key = [| Value.Int 1 |];
            data = [| Value.Int 1; Value.Str (String.make 100 'x') |];
          };
      ]
  in
  Alcotest.(check bool) "size reflects payload" true (Op.write_data_size t > 100)

(* --- YCSB --- *)

let test_ycsb_profiles () =
  Alcotest.(check (float 1e-9)) "RO reads" 1.0 Ycsb.read_only.Ycsb.read_pct;
  Alcotest.(check (float 1e-9)) "MC theta" 0.8 Ycsb.medium_contention.Ycsb.theta;
  Alcotest.(check (float 1e-9)) "HC writes" 0.5 Ycsb.high_contention.Ycsb.read_pct

let test_ycsb_load () =
  let p = Ycsb.with_records Ycsb.medium_contention 500 in
  let db = Gg_storage.Db.create () in
  Ycsb.load p db;
  let t = Gg_storage.Db.get_table_exn db Ycsb.table_name in
  Alcotest.(check int) "rows loaded" 500 (Gg_storage.Table.live_count t)

let test_ycsb_txn_shape () =
  let p = Ycsb.with_records Ycsb.medium_contention 1000 in
  let g = Ycsb.create p ~seed:1 in
  for _ = 1 to 100 do
    let t = Ycsb.next_txn g in
    Alcotest.(check int) "ops per txn" 10 (Op.n_ops t);
    Array.iter
      (fun o ->
        Alcotest.(check string) "table" Ycsb.table_name (Op.op_table o);
        match (Op.op_key o).(0) with
        | Value.Int k -> Alcotest.(check bool) "key range" true (k >= 0 && k < 1000)
        | _ -> Alcotest.fail "bad key type")
      t.Op.ops
  done

let test_ycsb_mix () =
  let p = Ycsb.with_records Ycsb.medium_contention 1000 in
  let g = Ycsb.create p ~seed:2 in
  let reads = ref 0 and total = ref 0 in
  for _ = 1 to 500 do
    let t = Ycsb.next_txn g in
    Array.iter
      (fun o ->
        incr total;
        match o with Op.Read _ -> incr reads | _ -> ())
      t.Op.ops
  done;
  let frac = float_of_int !reads /. float_of_int !total in
  Alcotest.(check bool)
    (Printf.sprintf "read fraction %.2f near 0.8" frac)
    true
    (frac > 0.75 && frac < 0.85)

let test_ycsb_read_only_profile () =
  let g = Ycsb.create (Ycsb.with_records Ycsb.read_only 100) ~seed:3 in
  for _ = 1 to 50 do
    Alcotest.(check bool) "all reads" true (Op.is_read_only (Ycsb.next_txn g))
  done

let test_ycsb_determinism () =
  let p = Ycsb.with_records Ycsb.medium_contention 1000 in
  let a = Ycsb.create p ~seed:9 and b = Ycsb.create p ~seed:9 in
  for _ = 1 to 20 do
    let ta = Ycsb.next_txn a and tb = Ycsb.next_txn b in
    Alcotest.(check bool) "same stream" true
      (Array.for_all2 (fun x y -> Op.op_key_str x = Op.op_key_str y) ta.Op.ops tb.Op.ops)
  done

let test_ycsb_long_txns () =
  let p =
    Ycsb.with_long_txns (Ycsb.with_records Ycsb.medium_contention 1000)
      ~frac:0.5 ~delay_us:20_000
  in
  let g = Ycsb.create p ~seed:4 in
  let long = ref 0 in
  for _ = 1 to 400 do
    if (Ycsb.next_txn g).Op.exec_extra_us = 20_000 then incr long
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d/400 long" !long)
    true
    (!long > 150 && !long < 250)

(* --- TPC-C --- *)

let test_tpcc_load () =
  let db = Gg_storage.Db.create () in
  Tpcc.load Tpcc.small db;
  let count name = Gg_storage.Table.live_count (Gg_storage.Db.get_table_exn db name) in
  Alcotest.(check int) "warehouses" 2 (count "warehouse");
  Alcotest.(check int) "districts" 4 (count "district");
  Alcotest.(check int) "customers" 20 (count "customer");
  Alcotest.(check int) "items" 20 (count "item");
  Alcotest.(check int) "stock" 40 (count "stock");
  Alcotest.(check int) "orders empty" 0 (count "orders")

let test_tpcc_new_order_shape () =
  let g = Tpcc.create Tpcc.small ~seed:1 ~node:0 in
  let t = Tpcc.new_order g in
  Alcotest.(check string) "label" "new_order" t.Op.label;
  (* warehouse read + district add + customer read + per-item (read+add)
     + order insert + per-item line insert *)
  let n_items = (Op.n_ops t - 4) / 3 in
  Alcotest.(check bool)
    (Printf.sprintf "items %d in 5..15" n_items)
    true
    (n_items >= 5 && n_items <= 15);
  let inserts =
    Array.fold_left
      (fun n o -> match o with Op.Insert _ -> n + 1 | _ -> n)
      0 t.Op.ops
  in
  Alcotest.(check int) "order + lines inserted" (n_items + 1) inserts

let test_tpcc_payment_shape () =
  let g = Tpcc.create Tpcc.small ~seed:2 ~node:0 in
  let t = Tpcc.payment g in
  Alcotest.(check string) "label" "payment" t.Op.label;
  Alcotest.(check int) "ops" 4 (Op.n_ops t);
  Alcotest.(check int) "writes" 3 (Op.n_writes t)

let test_tpcc_order_ids_unique_across_nodes () =
  let g0 = Tpcc.create Tpcc.small ~seed:1 ~node:0 in
  let g1 = Tpcc.create Tpcc.small ~seed:1 ~node:1 in
  let order_keys g =
    List.concat_map
      (fun _ ->
        Array.to_list (Tpcc.new_order g).Op.ops
        |> List.filter_map (function
             | Op.Insert { table = "orders"; key; _ } -> Some (Value.encode_key key)
             | _ -> None))
      (List.init 50 (fun i -> i))
  in
  let k0 = order_keys g0 and k1 = order_keys g1 in
  List.iter
    (fun k -> Alcotest.(check bool) "no cross-node collision" false (List.mem k k1))
    k0

let test_tpcc_mix () =
  let g = Tpcc.create Tpcc.small ~seed:5 ~node:0 in
  let no = ref 0 in
  let n = 1000 in
  for _ = 1 to n do
    if (Tpcc.next_txn g).Op.label = "new_order" then incr no
  done;
  let frac = float_of_int !no /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "new-order fraction %.2f" frac)
    true
    (frac > 0.45 && frac < 0.55)

let test_tpcc_full_mix_labels () =
  let g = Tpcc.create ~full_mix:true Tpcc.small ~seed:9 ~node:0 in
  let seen = Hashtbl.create 8 in
  for _ = 1 to 2_000 do
    Hashtbl.replace seen (Tpcc.next_txn g).Op.label ()
  done;
  List.iter
    (fun l ->
      Alcotest.(check bool) (l ^ " generated") true (Hashtbl.mem seen l))
    [ "new_order"; "payment"; "order_status"; "delivery"; "stock_level" ]

let test_tpcc_order_status_read_only () =
  let g = Tpcc.create Tpcc.small ~seed:10 ~node:0 in
  for _ = 1 to 30 do
    ignore (Tpcc.new_order g)
  done;
  (* order_status picks a random district; with orders spread over all
     four districts, some draw must hit a known order. *)
  let deepest = ref 0 in
  for _ = 1 to 20 do
    let t = Tpcc.order_status g in
    Alcotest.(check bool) "read only" true (Op.is_read_only t);
    deepest := max !deepest (Op.n_ops t)
  done;
  Alcotest.(check bool) "reads order + lines" true (!deepest >= 3)

let test_tpcc_delivery_consumes_orders () =
  let g = Tpcc.create Tpcc.small ~seed:11 ~node:0 in
  (* generate orders across both warehouses/districts *)
  for _ = 1 to 20 do
    ignore (Tpcc.new_order g)
  done;
  let d = Tpcc.delivery g in
  Alcotest.(check string) "label" "delivery" d.Op.label;
  Alcotest.(check bool) "writes carrier + balance" true (Op.n_writes d >= 2);
  (* with no orders at all, falls back to payment *)
  let g2 = Tpcc.create Tpcc.small ~seed:12 ~node:1 in
  Alcotest.(check string) "fallback" "payment" (Tpcc.delivery g2).Op.label

let test_tpcc_stock_level_read_only () =
  let g = Tpcc.create Tpcc.small ~seed:13 ~node:0 in
  let t = Tpcc.stock_level g in
  Alcotest.(check bool) "read only" true (Op.is_read_only t);
  Alcotest.(check int) "district + 10 stock reads" 11 (Op.n_ops t)

let test_tpcc_parse_cost_from_config () =
  let g = Tpcc.create Tpcc.default ~seed:1 ~node:0 in
  Alcotest.(check int) "parse cost (Table 2)" 4_600 (Tpcc.payment g).Op.parse_cost_us

(* --- Hotkey --- *)

let test_hotkey_load_and_shape () =
  let p = Hotkey.with_records Hotkey.base 500 in
  let db = Gg_storage.Db.create () in
  Hotkey.load p db;
  let t = Gg_storage.Db.get_table_exn db Hotkey.table_name in
  Alcotest.(check int) "rows loaded" 500 (Gg_storage.Table.live_count t);
  let g = Hotkey.create p ~seed:1 in
  for _ = 1 to 50 do
    let txn = Hotkey.next_txn g in
    Alcotest.(check int) "ops per txn" p.Hotkey.ops_per_txn (Op.n_ops txn);
    Array.iter
      (fun o ->
        Alcotest.(check string) "table" Hotkey.table_name (Op.op_table o);
        match o with
        | Op.Add { col; _ } ->
          Alcotest.(check bool) "counter column" true
            (col >= 1 && col <= p.Hotkey.counters)
        | _ -> ())
      txn.Op.ops
  done

let test_hotkey_concentration () =
  (* [hot_pct] of operations must land on the current hot window. *)
  let p = Hotkey.with_hot (Hotkey.with_records Hotkey.base 10_000) ~keys:16 ~pct:0.6 in
  let g = Hotkey.create p ~seed:7 in
  let counts = Hashtbl.create 64 in
  let total = ref 0 in
  (* Stay inside one rotation window so the hot set is fixed. *)
  for _ = 1 to p.Hotkey.rotate_every - 1 do
    Array.iter
      (fun o ->
        incr total;
        let k = Op.op_key_str o in
        Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
      (Hotkey.next_txn g).Op.ops
  done;
  let top16 =
    Hashtbl.fold (fun _ n acc -> n :: acc) counts []
    |> List.sort (fun a b -> compare b a)
    |> List.filteri (fun i _ -> i < 16)
    |> List.fold_left ( + ) 0
  in
  let frac = float_of_int top16 /. float_of_int !total in
  Alcotest.(check bool)
    (Printf.sprintf "top-16 keys absorb %.2f" frac)
    true (frac > 0.5)

let test_hotkey_rotation_and_determinism () =
  let p = Hotkey.with_records Hotkey.base 10_000 in
  let keys_of g n =
    List.concat_map
      (fun _ -> Array.to_list (Hotkey.next_txn g).Op.ops |> List.map Op.op_key_str)
      (List.init n (fun i -> i))
  in
  let a = Hotkey.create p ~seed:3 and b = Hotkey.create p ~seed:3 in
  let ka = keys_of a 50 and kb = keys_of b 50 in
  Alcotest.(check bool) "same stream, same seed" true (ka = kb);
  (* Across a rotation boundary the hot window must actually move. *)
  let g = Hotkey.create p ~seed:4 in
  let w1 = keys_of g p.Hotkey.rotate_every in
  let w2 = keys_of g p.Hotkey.rotate_every in
  Alcotest.(check bool) "hot window rotates" true
    (List.exists (fun k -> not (List.mem k w1)) w2)

(* --- Social --- *)

let test_social_post_shape () =
  let p = Social.with_users Social.base 5_000 in
  let db = Gg_storage.Db.create () in
  Social.load p db;
  Alcotest.(check int) "rows loaded" 5_000
    (Gg_storage.Table.live_count (Gg_storage.Db.get_table_exn db Social.table_name));
  let g = Social.create p ~seed:1 in
  let saw_post = ref false in
  for _ = 1 to 200 do
    let t = Social.next_txn g in
    if t.Op.label = "SOCIAL-post" then begin
      saw_post := true;
      (* author read + post bump + >= 1 follower feed bump *)
      Alcotest.(check bool) "post fans out" true (Op.n_writes t >= 2);
      Array.iter
        (fun o ->
          match o with
          | Op.Add { col; _ } ->
            Alcotest.(check bool) "bump col" true
              (col = Social.feed_col || col = Social.post_col)
          | _ -> ())
        t.Op.ops
    end
  done;
  Alcotest.(check bool) "posts generated" true !saw_post

let test_social_follower_graph_deterministic () =
  (* The implicit graph is a pure hash: two generators on different
     seeds still fan a given author out to the same follower rows. *)
  let p = Social.with_users Social.base 5_000 in
  let followers_of g =
    let tbl = Hashtbl.create 64 in
    for _ = 1 to 400 do
      let t = Social.next_txn g in
      if t.Op.label = "SOCIAL-post" then begin
        (* first op reads the author *)
        let author = Op.op_key_str t.Op.ops.(0) in
        (* Slot order: follower j of an author is a pure hash, so two
           posts by the same author agree on every shared slot. *)
        let feeds =
          Array.to_list t.Op.ops
          |> List.filter_map (function
               | Op.Add { col; key; _ } when col = Social.feed_col ->
                 Some (Value.encode_key key)
               | _ -> None)
        in
        match Hashtbl.find_opt tbl author with
        | Some prev ->
          (* same author, same fanout draw => same follower prefix *)
          let common = min (List.length prev) (List.length feeds) in
          if common > 0 then
            Alcotest.(check bool) "follower slots stable" true
              (List.filteri (fun i _ -> i < common) prev
              = List.filteri (fun i _ -> i < common) feeds)
        | None -> Hashtbl.replace tbl author feeds
      end
    done;
    tbl
  in
  ignore (followers_of (Social.create p ~seed:21));
  ignore (followers_of (Social.create p ~seed:22))

let test_social_determinism () =
  let p = Social.with_users Social.base 5_000 in
  let a = Social.create p ~seed:9 and b = Social.create p ~seed:9 in
  for _ = 1 to 50 do
    let ta = Social.next_txn a and tb = Social.next_txn b in
    Alcotest.(check string) "label" ta.Op.label tb.Op.label;
    Alcotest.(check bool) "same keys" true
      (Array.for_all2
         (fun x y -> Op.op_key_str x = Op.op_key_str y)
         ta.Op.ops tb.Op.ops)
  done

(* --- SQL generators --- *)

let test_scan_stmt_shapes () =
  let p = Sqlgen.Scan.with_records Sqlgen.Scan.base 1_000 in
  let db = Gg_storage.Db.create () in
  Sqlgen.Scan.load p db;
  Alcotest.(check int) "rows loaded" 1_000
    (Gg_storage.Table.live_count
       (Gg_storage.Db.get_table_exn db Sqlgen.Scan.table_name));
  let g = Sqlgen.Scan.create p ~seed:1 in
  let labels = Hashtbl.create 4 in
  for _ = 1 to 200 do
    let label, stmts = Sqlgen.Scan.next_stmts g in
    Hashtbl.replace labels label ();
    Alcotest.(check bool) "has statements" true (stmts <> []);
    List.iter
      (fun (sql, params) ->
        Alcotest.(check bool) "targets events" true
          (let open String in
           length sql > 0 && Array.length params > 0);
        ignore sql)
      stmts
  done;
  List.iter
    (fun l -> Alcotest.(check bool) (l ^ " generated") true (Hashtbl.mem labels l))
    [ "SCAN-range"; "SCAN-agg"; "SCAN-upd" ]

let test_secidx_stmt_shapes () =
  let p = Sqlgen.Secidx.with_records Sqlgen.Secidx.base 1_000 in
  let db = Gg_storage.Db.create () in
  Sqlgen.Secidx.load p db;
  let t = Gg_storage.Db.get_table_exn db Sqlgen.Secidx.table_name in
  Alcotest.(check int) "rows loaded" 1_000 (Gg_storage.Table.live_count t);
  let g = Sqlgen.Secidx.create p ~seed:1 in
  let labels = Hashtbl.create 4 in
  for _ = 1 to 200 do
    let label, stmts = Sqlgen.Secidx.next_stmts g in
    Hashtbl.replace labels label ();
    Alcotest.(check bool) "has statements" true (stmts <> [])
  done;
  List.iter
    (fun l -> Alcotest.(check bool) (l ^ " generated") true (Hashtbl.mem labels l))
    [ "SECIDX-read"; "SECIDX-flip"; "SECIDX-upd" ]

let test_sqlgen_determinism () =
  let p = Sqlgen.Scan.with_records Sqlgen.Scan.base 1_000 in
  let a = Sqlgen.Scan.create p ~seed:5 and b = Sqlgen.Scan.create p ~seed:5 in
  for _ = 1 to 50 do
    Alcotest.(check bool) "same stream" true
      (Sqlgen.Scan.next_stmts a = Sqlgen.Scan.next_stmts b)
  done

let () =
  Alcotest.run "gg_workload"
    [
      ( "op",
        [
          Alcotest.test_case "classification" `Quick test_op_classification;
          Alcotest.test_case "write size" `Quick test_op_write_size;
        ] );
      ( "ycsb",
        [
          Alcotest.test_case "profiles" `Quick test_ycsb_profiles;
          Alcotest.test_case "load" `Quick test_ycsb_load;
          Alcotest.test_case "txn shape" `Quick test_ycsb_txn_shape;
          Alcotest.test_case "read/write mix" `Quick test_ycsb_mix;
          Alcotest.test_case "read-only profile" `Quick test_ycsb_read_only_profile;
          Alcotest.test_case "determinism" `Quick test_ycsb_determinism;
          Alcotest.test_case "long txns" `Quick test_ycsb_long_txns;
        ] );
      ( "tpcc",
        [
          Alcotest.test_case "load" `Quick test_tpcc_load;
          Alcotest.test_case "new-order shape" `Quick test_tpcc_new_order_shape;
          Alcotest.test_case "payment shape" `Quick test_tpcc_payment_shape;
          Alcotest.test_case "order id uniqueness" `Quick test_tpcc_order_ids_unique_across_nodes;
          Alcotest.test_case "mix" `Quick test_tpcc_mix;
          Alcotest.test_case "parse cost" `Quick test_tpcc_parse_cost_from_config;
          Alcotest.test_case "full mix labels" `Quick test_tpcc_full_mix_labels;
          Alcotest.test_case "order-status read-only" `Quick test_tpcc_order_status_read_only;
          Alcotest.test_case "delivery consumes orders" `Quick test_tpcc_delivery_consumes_orders;
          Alcotest.test_case "stock-level read-only" `Quick test_tpcc_stock_level_read_only;
        ] );
      ( "hotkey",
        [
          Alcotest.test_case "load + shape" `Quick test_hotkey_load_and_shape;
          Alcotest.test_case "hot concentration" `Quick test_hotkey_concentration;
          Alcotest.test_case "rotation + determinism" `Quick
            test_hotkey_rotation_and_determinism;
        ] );
      ( "social",
        [
          Alcotest.test_case "post shape" `Quick test_social_post_shape;
          Alcotest.test_case "follower graph deterministic" `Quick
            test_social_follower_graph_deterministic;
          Alcotest.test_case "determinism" `Quick test_social_determinism;
        ] );
      ( "sqlgen",
        [
          Alcotest.test_case "scan statements" `Quick test_scan_stmt_shapes;
          Alcotest.test_case "secidx statements" `Quick test_secidx_stmt_shapes;
          Alcotest.test_case "determinism" `Quick test_sqlgen_determinism;
        ] );
    ]
