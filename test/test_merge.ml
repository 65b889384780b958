(* The epoch merge kernel ([Epoch_merge], DESIGN.md §10): its
   differential property against the reference model
   ([Gg_check.Merge_model]), the order-dependent parts of DESIGN.md §2's
   clarification 2 on both, the column-level lattice's payoff, and the
   [~jobs] contract (the kernel runs on one domain). *)

open Geogauss
module Value = Gg_storage.Value
module Table = Gg_storage.Table
module Db = Gg_storage.Db
module Writeset = Gg_crdt.Writeset
module Meta = Gg_crdt.Meta
module Merge_model = Gg_check.Merge_model

let kv_db n_rows =
  let db = Db.create () in
  let t =
    Db.create_table db ~name:"kv"
      ~columns:
        [
          { Gg_storage.Schema.name = "k"; ty = Gg_storage.Schema.TInt };
          { name = "v"; ty = TInt };
        ]
      ~key:[ "k" ]
  in
  for i = 0 to n_rows - 1 do
    Table.load t [| Value.Int i; Value.Int 0 |]
  done;
  db

(* A write set of csn [ts]@0 whose records [(op, k, v)] write kv row [k]
   with [v] (a delete carries no data). *)
let kv_ws ~sen ~cen ~ts recs =
  let record (op, k, v) =
    let data = if op = Writeset.Delete then [||] else [| Value.Int k; Value.Int v |] in
    Writeset.make_record ~table:"kv" ~key:[| Value.Int k |] ~op ~data ()
  in
  Writeset.make
    ~meta:(Meta.make ~sen ~cen ~csn:(Gg_storage.Csn.make ~ts ~node:0))
    ~records:(List.map record recs) ()

(* --- The merge kernel --- *)

let test_jobs_2_rejected () =
  let db = Db.create () in
  Alcotest.check_raises "jobs=2"
    (Invalid_argument "Epoch_merge.run: jobs must be 1") (fun () ->
      ignore (Epoch_merge.run ~db ~jobs:2 ~ssi:false []))

(* --- The column-level kernel (DESIGN.md §13) --- *)

(* A contentious epoch whose Updates carry narrow column masks, so the
   per-field claim/apply machinery is actually exercised: disjoint and
   overlapping masks on the same hot rows, duplicate-key inserts, and
   deletes racing the masked updates. *)
let contentious_column_epoch ~seed ~n_rows ~n_txns =
  let db = kv_db n_rows in
  let rng = Gg_util.Rng.create seed in
  let txns =
    List.init n_txns (fun i ->
        let meta =
          Meta.make ~sen:1 ~cen:1
            ~csn:(Gg_storage.Csn.make ~ts:(1_000 + i) ~node:(i mod 3))
        in
        let records =
          List.init 6 (fun r ->
              let roll = Gg_util.Rng.int rng 100 in
              if roll < 80 then
                let k = Gg_util.Rng.int rng n_rows in
                (* bias towards the value column; sometimes whole-row *)
                let cols =
                  if roll < 50 then Gg_crdt.Column.of_index 1
                  else Gg_crdt.Column.full
                in
                Writeset.make_record ~cols ~table:"kv" ~key:[| Value.Int k |]
                  ~op:Writeset.Update
                  ~data:[| Value.Int k; Value.Int ((i * 10) + r) |]
                  ()
              else if roll < 92 then
                let k = n_rows + Gg_util.Rng.int rng (n_rows / 4) in
                Writeset.make_record ~table:"kv" ~key:[| Value.Int k |]
                  ~op:Writeset.Insert
                  ~data:[| Value.Int k; Value.Int r |]
                  ()
              else
                let k = Gg_util.Rng.int rng n_rows in
                Writeset.make_record ~table:"kv" ~key:[| Value.Int k |]
                  ~op:Writeset.Delete ~data:[||] ())
        in
        Writeset.make ~meta ~records ())
  in
  (db, txns)

let test_column_kernel_commits_more () =
  (* The whole point of the per-field lattice: masked same-row updates
     that collide under row-level first-writer-wins merge cleanly at
     column level. Same epoch, strictly fewer conflict aborts. *)
  let outcome level =
    let db, txns = contentious_column_epoch ~seed:42 ~n_rows:40 ~n_txns:150 in
    let m = Epoch_merge.run ~level ~db ~jobs:1 ~ssi:false txns in
    Epoch_merge.n_committed m
  in
  let row = outcome Params.Row and col = outcome Params.Column in
  Alcotest.(check bool)
    (Printf.sprintf "column commits (%d) > row commits (%d)" col row)
    true (col > row)

(* --- The kernel against the reference model --- *)

(* A random epoch sequence over two 4-column tables ("a" carries a
   secondary index on [v]) whose key universe is small, so records
   collide: inserts over live rows, tombstones and absent keys;
   duplicate keys within and across write sets; deletes; revivals;
   writes to an unknown table; masked column updates; and SSI read keys,
   some on rows the epoch's other write sets write. [Epoch_merge] merges
   it into the database and [Merge_model] into its own copy of the rows;
   after every epoch the
   verdicts, the counts, each table's live and total row counters and
   every row's header, tombstone flag and data must agree, and the
   kernel's cached digest and indexes must equal a fresh [Db.copy]'s. *)
type diff_case = {
  d_seed : int;
  d_level : Params.merge_level;
  d_ssi : bool;
  d_scan_first : bool;
      (* build "b"'s ordered index before merging too ("a"'s secondary
         index already builds "a"'s) *)
}

let diff_tables = [| "a"; "b" |]
let diff_keys = 10

let diff_db ~seed ~scan_first =
  let rng = Gg_util.Rng.create seed in
  let db = Db.create () in
  Array.iter
    (fun name ->
      let t =
        Db.create_table db ~name
          ~columns:
            [
              { Gg_storage.Schema.name = "k"; ty = Gg_storage.Schema.TInt };
              { name = "v"; ty = TInt };
              { name = "w"; ty = TInt };
              { name = "x"; ty = TInt };
            ]
          ~key:[ "k" ]
      in
      for k = 0 to diff_keys - 1 do
        match Gg_util.Rng.int rng 3 with
        | 0 -> () (* absent *)
        | roll ->
          Table.load t [| Value.Int k; Value.Int (k mod 3); Value.Int 0; Value.Int 0 |];
          if roll = 1 then begin
            (* tombstone from an earlier epoch *)
            let e = Option.get (Table.find t (Value.encode_key [| Value.Int k |])) in
            Gg_storage.Row_header.stamp e.Table.header ~sen:1
              ~csn:(Gg_storage.Csn.make ~ts:k ~node:0) ~cen:1;
            Table.delete t e
          end
      done;
      if name = "a" then Table.create_index t ~name:"by_v" ~cols:[ "v" ];
      if scan_first then Table.scan t ~f:ignore)
    diff_tables;
  db

(* One to three epochs of write sets with distinct csns. In about half
   the epochs every write set reads rows that the epoch's other write
   sets write, so two write sets that both commit and read each other's
   rows make an SSI pivot; elsewhere the read keys are drawn at random
   and pivots are rare. *)
let diff_epochs ~seed ~column =
  let rng = Gg_util.Rng.create (seed + 1) in
  let ts = ref 1_000 in
  let pick_key () =
    let table =
      if Gg_util.Rng.int rng 20 = 0 then "zz" else Gg_util.Rng.pick rng diff_tables
    in
    (table, Gg_util.Rng.int rng diff_keys)
  in
  let record () =
    let table, k = pick_key () in
    let data =
      Array.init 4 (fun c ->
          if c = 0 then Value.Int k else Value.Int (Gg_util.Rng.int rng 5))
    in
    match Gg_util.Rng.int rng 10 with
    | 0 | 1 | 2 | 3 ->
      let cols =
        if not column then Gg_crdt.Column.full
        else
          Gg_util.Rng.pick rng
            [| Gg_crdt.Column.full; Gg_crdt.Column.of_index 1;
               Gg_crdt.Column.of_index 2;
               Gg_crdt.Column.union (Gg_crdt.Column.of_index 1)
                 (Gg_crdt.Column.of_index 3) |]
      in
      Writeset.make_record ~cols ~table ~key:[| Value.Int k |] ~op:Writeset.Update
        ~data ()
    | 4 | 5 | 6 | 7 ->
      Writeset.make_record ~table ~key:[| Value.Int k |] ~op:Writeset.Insert ~data ()
    | _ ->
      Writeset.make_record ~table ~key:[| Value.Int k |] ~op:Writeset.Delete
        ~data:[||] ()
  in
  List.init (1 + Gg_util.Rng.int rng 3) (fun e ->
      let drafts =
        List.init (1 + Gg_util.Rng.int rng 10) (fun _ ->
            incr ts;
            let csn = Gg_storage.Csn.make ~ts:!ts ~node:(Gg_util.Rng.int rng 3) in
            let meta = Meta.make ~sen:(1 + Gg_util.Rng.int rng 3) ~cen:(10 + e) ~csn in
            (meta, List.init (1 + Gg_util.Rng.int rng 4) (fun _ -> record ())))
      in
      let cross_reads = Gg_util.Rng.bool rng in
      List.mapi
        (fun w (meta, records) ->
          let others =
            Array.of_list
              (List.concat (List.filteri (fun w' _ -> w' <> w) (List.map snd drafts)))
          in
          let read_keys =
            if cross_reads && others <> [||] then
              List.init (1 + Gg_util.Rng.int rng 2) (fun _ ->
                  let r = Gg_util.Rng.pick rng others in
                  (r.Writeset.table, Writeset.key_str r))
            else
              List.init (Gg_util.Rng.int rng 3) (fun _ ->
                  let table, k = pick_key () in
                  (table, Value.encode_key [| Value.Int k |]))
          in
          Writeset.make ~read_keys ~meta ~records ())
        drafts)

(* The rows of [db] as the model holds them. *)
let model_state db =
  let tables = Db.table_names db in
  let rows = ref Merge_model.Rows.empty in
  List.iter
    (fun name ->
      Table.iter_all (Db.get_table_exn db name) ~f:(fun e ->
          let h = e.Table.header in
          rows :=
            Merge_model.Rows.add (name, e.Table.key_str)
              { Merge_model.meta = Meta.make ~sen:h.sen ~cen:h.cen ~csn:h.csn;
                deleted = h.deleted; data = Array.copy e.Table.data }
              !rows))
    tables;
  { Merge_model.tables; rows = !rows }

let show_verdict = function
  | None -> "C"
  | Some r -> Txn.abort_reason_to_string r

let show_rows (st : Merge_model.state) =
  List.map
    (fun ((t, k), (r : Merge_model.row)) ->
      Printf.sprintf "%s/%S %s%s [%s]" t k (Meta.to_string r.meta)
        (if r.deleted then " deleted" else "")
        (String.concat "," (Array.to_list (Array.map Value.to_string r.data))))
    (Merge_model.Rows.bindings st.rows)

(* Each table's live and total row counts: the kernel's counters, and
   the model's rows counted. *)
let kernel_counts db =
  List.map
    (fun name ->
      let t = Db.get_table_exn db name in
      (Table.live_count t, Table.total_count t))
    (Db.table_names db)

let model_counts (st : Merge_model.state) =
  List.map
    (fun name ->
      Merge_model.Rows.fold
        (fun (t, _) (r : Merge_model.row) (live, total) ->
          if t <> name then (live, total)
          else ((if r.deleted then live else live + 1), total + 1))
        st.rows (0, 0))
    st.tables

let show_counts =
  List.map (fun (live, total) -> Printf.sprintf "live=%d total=%d" live total)

(* What the kernel keeps cached or maintains incrementally: the digest,
   the ordered index and "a"'s secondary index. A fresh copy rebuilds
   each from the rows alone, so the index lookups are compared as sets;
   [test_index_order] pins their order. *)
let derived db =
  Db.digest db
  :: List.map
       (fun name ->
         let t = Db.get_table_exn db name in
         let keys = ref [] in
         Table.scan t ~f:(fun e -> keys := e.Table.key_str :: !keys);
         let by_v =
           if Table.index_cols t ~name:"by_v" = None then []
           else
             List.init 3 (fun v ->
                 Table.index_lookup t ~name:"by_v" ~key:[| Value.Int v |]
                 |> List.map (fun e -> e.Table.key_str)
                 |> List.sort compare |> String.concat ",")
         in
         Printf.sprintf "%S %S" (String.concat "," (List.rev !keys))
           (String.concat "|" by_v))
       (Array.to_list diff_tables)

(* Merge each epoch with the kernel and with the model, each from its
   own state, and return the first observable they disagree on. *)
let diff_mismatch case =
  let db = diff_db ~seed:case.d_seed ~scan_first:case.d_scan_first in
  let epochs =
    diff_epochs ~seed:case.d_seed ~column:(case.d_level = Params.Column)
  in
  let level = case.d_level and ssi = case.d_ssi in
  let rec go st = function
    | [] -> None
    | txns :: rest ->
      let m = Epoch_merge.run ~level ~db ~jobs:1 ~ssi txns in
      let o = Merge_model.merge ~level ~ssi st txns in
      let kernel =
        Printf.sprintf "%d/%d/%d" (Epoch_merge.n_records m)
          (Epoch_merge.n_committed m) (Epoch_merge.n_dead m)
        :: String.concat " "
             (List.map (fun ws -> show_verdict (Epoch_merge.verdict m ws)) txns)
        :: show_counts (kernel_counts db)
        @ show_rows (model_state db)
      and model =
        Printf.sprintf "%d/%d/%d" o.n_records o.n_committed
          (List.length txns - o.n_committed)
        :: String.concat " " (List.map show_verdict o.verdicts)
        :: show_counts (model_counts o.after)
        @ show_rows o.after
      in
      if kernel <> model then Some ("model", model, kernel)
      else if derived db <> derived (Db.copy db) then
        Some ("fresh copy", derived (Db.copy db), derived db)
      else go o.after rest
  in
  go (model_state db) epochs

let gen_diff_case =
  QCheck.Gen.(
    map4
      (fun d_seed column d_ssi d_scan_first ->
        { d_seed; d_level = (if column then Params.Column else Params.Row); d_ssi;
          d_scan_first })
      (int_bound 1_000_000) bool bool bool)

let print_diff_case c =
  Printf.sprintf "seed=%d level=%s ssi=%b scan_first=%b" c.d_seed
    (Params.merge_level_to_string c.d_level) c.d_ssi c.d_scan_first

(* The kernel against the reference model, epoch by epoch (see
   [diff_mismatch]). The printed name predates the model; it stays
   because the suite's test list names it. *)
let prop_kernel_matches_model =
  QCheck.Test.make ~name:"kernel = old kernel" ~count:400
    (QCheck.make ~print:print_diff_case gen_diff_case)
    (fun case ->
      match diff_mismatch case with
      | None -> true
      | Some (what, want, got) ->
        QCheck.Test.fail_reportf "\n  %s: %s\n  kernel: %s" what
          (String.concat "\n          " want)
          (String.concat "\n          " got))

(* --- Clarification 2's order-dependent parts (DESIGN.md §2) --- *)

(* Merge [txns] over kv rows 0-3 with the kernel and the model, check
   they agree, and return the verdicts, row 1 and whether the digest
   moved. *)
let merge_both txns =
  let db = kv_db 4 in
  let before = Db.digest db and st = model_state db in
  let m = Epoch_merge.run ~db ~jobs:1 ~ssi:false txns in
  let o = Merge_model.merge ~level:Params.Row ~ssi:false st txns in
  let verdicts = List.map (fun ws -> show_verdict (Epoch_merge.verdict m ws)) txns in
  let check = Alcotest.(check (list string)) in
  check "model verdicts" verdicts (List.map show_verdict o.verdicts);
  check "model rows" (show_rows (model_state db)) (show_rows o.after);
  check "model counts" (show_counts (kernel_counts db))
    (show_counts (model_counts o.after));
  let key = Value.encode_key [| Value.Int 1 |] in
  (verdicts, Option.get (Table.find (Db.get_table_exn db "kv") key), Db.digest db <> before)

(* ws1 sets v=1 on kv row 1; ws2 does too, then on the absent row 9. *)
let test_abort_reason_follows_record_order () =
  let ws1 = kv_ws ~sen:1 ~cen:1 ~ts:1000 [ (Writeset.Update, 1, 1) ] in
  let ws2 = kv_ws ~sen:1 ~cen:1 ~ts:1001 Writeset.[ (Update, 1, 1); (Update, 9, 1) ] in
  let check name txns want =
    let verdicts, _, _ = merge_both txns in
    Alcotest.(check (list string)) name want verdicts
  in
  check "[ws1; ws2]" [ ws1; ws2 ] [ "C"; "write-conflict" ];
  check "[ws2; ws1]" [ ws2; ws1 ] [ "row-deleted"; "C" ]

let test_aborted_stamp_stays () =
  let ws1 = kv_ws ~sen:1 ~cen:1 ~ts:1000 [ (Writeset.Update, 1, 1) ] in
  let ws2 = kv_ws ~sen:2 ~cen:1 ~ts:1001 Writeset.[ (Update, 1, 1); (Update, 9, 1) ] in
  List.iter
    (fun (name, txns, want) ->
      let verdicts, row1, moved = merge_both txns in
      Alcotest.(check (list string)) name want verdicts;
      Alcotest.(check string) "row 1 keeps v=0" "0"
        (Value.to_string row1.Table.data.(1));
      Alcotest.(check string) "row 1 header" "{sen=2 csn=1001@0 cen=1}"
        (Gg_storage.Row_header.to_string row1.Table.header);
      Alcotest.(check bool) "digest changed" true moved)
    [ ("[ws1; ws2]", [ ws1; ws2 ], [ "write-conflict"; "row-deleted" ]);
      ("[ws2; ws1]", [ ws2; ws1 ], [ "row-deleted"; "write-conflict" ]) ]

(* --- Secondary index order --- *)

(* An index lookup lists a value's rows in the order the SQL executor
   visits them, so the order reaches query results and read sets. Each
   row that enters the index goes first. Over kv rows 0-3 (v=0, indexed
   in key order), epoch 1 deletes row 2 and inserts rows 5 then 4;
   epoch 2 revives row 2 and rewrites row 3. *)
let test_index_order () =
  let db = kv_db 4 in
  let t = Db.get_table_exn db "kv" in
  Table.create_index t ~name:"by_v" ~cols:[ "v" ];
  let merge cen records =
    let txns = List.mapi (fun i -> kv_ws ~sen:1 ~cen ~ts:(1000 + i)) records in
    let m = Epoch_merge.run ~db ~jobs:1 ~ssi:false txns in
    Alcotest.(check int) "all commit" (List.length txns) (Epoch_merge.n_committed m);
    Table.index_lookup t ~name:"by_v" ~key:[| Value.Int 0 |]
    |> List.map (fun e -> Value.to_string e.Table.key.(0))
    |> String.concat ","
  in
  Alcotest.(check string) "loaded" "3,2,1,0" (merge 1 []);
  Alcotest.(check string) "epoch 1" "4,5,3,1,0"
    (merge 1 Writeset.[ [ (Delete, 2, 0) ]; [ (Insert, 5, 0); (Insert, 4, 0) ] ]);
  Alcotest.(check string) "epoch 2" "3,2,4,5,1,0"
    (merge 2 Writeset.[ [ (Insert, 2, 0) ]; [ (Update, 3, 0) ] ])

let () =
  Alcotest.run "merge"
    [
      ( "kernel",
        [
          Alcotest.test_case "run ~jobs:2 raises Invalid_argument" `Quick
            test_jobs_2_rejected;
          Alcotest.test_case "abort reason follows record order" `Quick
            test_abort_reason_follows_record_order;
          Alcotest.test_case "aborted write set's stamp stays" `Quick
            test_aborted_stamp_stays;
          Alcotest.test_case "index order follows write-back" `Quick
            test_index_order;
        ] );
      ( "column kernel",
        [
          Alcotest.test_case "column commits more than row" `Quick
            test_column_kernel_commits_more;
        ] );
      ( "differential",
        [ QCheck_alcotest.to_alcotest prop_kernel_matches_model ] );
    ]
