(* The epoch merge kernel ([Epoch_merge], DESIGN.md §10): its
   differential property against the kernel it replaced
   ([Merge_oracle]), the column-level lattice's payoff, and the [~jobs]
   contract (the kernel runs on one domain). *)

open Geogauss
module Value = Gg_storage.Value
module Table = Gg_storage.Table
module Db = Gg_storage.Db
module Writeset = Gg_crdt.Writeset
module Meta = Gg_crdt.Meta

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

(* --- The resolve-once kernel against the kernel it replaced --- *)

(* A random epoch sequence over two 4-column tables ("a" carries a
   secondary index on [v]) whose key universe is small, so records
   collide: inserts over live rows, tombstones and absent keys;
   duplicate keys within and across write sets; deletes; revivals;
   writes to an unknown table; masked column updates; SSI read keys; and
   deferred write-back. [Merge_oracle] (the old kernel, verbatim) and
   [Epoch_merge] each merge it into a fresh copy of the same database;
   every observable must agree after every epoch. *)
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

(* One to three epochs of write sets with distinct csns, and the
   predicate picking the write sets whose write-back is deferred. *)
let diff_epochs ~seed ~column =
  let rng = Gg_util.Rng.create (seed + 1) in
  let ts = ref 1_000 in
  let deferred = Hashtbl.create 8 in
  let epochs =
    List.init (1 + Gg_util.Rng.int rng 3) (fun e ->
        List.init (1 + Gg_util.Rng.int rng 10) (fun _ ->
            incr ts;
            let csn = Gg_storage.Csn.make ~ts:!ts ~node:(Gg_util.Rng.int rng 3) in
            if Gg_util.Rng.int rng 8 = 0 then Hashtbl.replace deferred csn ();
            let meta = Meta.make ~sen:(1 + Gg_util.Rng.int rng 3) ~cen:(10 + e) ~csn in
            let pick_key () =
              let table =
                if Gg_util.Rng.int rng 20 = 0 then "zz"
                else Gg_util.Rng.pick rng diff_tables
              in
              (table, Gg_util.Rng.int rng diff_keys)
            in
            let records =
              List.init (1 + Gg_util.Rng.int rng 4) (fun _ ->
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
                    Writeset.make_record ~cols ~table ~key:[| Value.Int k |]
                      ~op:Writeset.Update ~data ()
                  | 4 | 5 | 6 | 7 ->
                    Writeset.make_record ~table ~key:[| Value.Int k |]
                      ~op:Writeset.Insert ~data ()
                  | _ ->
                    Writeset.make_record ~table ~key:[| Value.Int k |]
                      ~op:Writeset.Delete ~data:[||] ())
            in
            let read_keys =
              List.init (Gg_util.Rng.int rng 3) (fun _ ->
                  let table, k = pick_key () in
                  (table, Value.encode_key [| Value.Int k |]))
            in
            Writeset.make ~read_keys ~meta ~records ()))
  in
  (epochs, fun (ws : Writeset.t) -> Hashtbl.mem deferred ws.Writeset.meta.Meta.csn)

(* Everything a caller can observe of one merge and the database after
   it, as strings. *)
let diff_observe db ~decisions ~counts =
  let tables =
    List.map
      (fun name ->
        let t = Db.get_table_exn db name in
        let keys = ref [] in
        Table.scan t ~f:(fun e -> keys := Value.encode_key e.Table.key :: !keys);
        let by_v =
          match Table.index_cols t ~name:"by_v" with
          | None -> []
          | Some _ ->
            List.init 3 (fun v ->
                Table.index_lookup t ~name:"by_v" ~key:[| Value.Int v |]
                |> List.map (fun e -> e.Table.key_str)
                |> String.concat ",")
        in
        Printf.sprintf "%s live=%d total=%d scan=[%s] by_v=[%s]" name
          (Table.live_count t) (Table.total_count t)
          (String.concat "," (List.rev_map String.escaped !keys))
          (String.concat "|" (List.map String.escaped by_v)))
      (Array.to_list diff_tables)
  in
  (counts :: String.concat " " decisions :: Db.digest db :: tables)

let diff_run case run =
  let column = case.d_level = Params.Column in
  let db = diff_db ~seed:case.d_seed ~scan_first:case.d_scan_first in
  let epochs, defer = diff_epochs ~seed:case.d_seed ~column in
  List.concat_map (fun txns -> run ~db ~defer txns) epochs

let diff_oracle case =
  diff_run case (fun ~db ~defer txns ->
      let m =
        Merge_oracle.run ~threshold:0 ~defer ~level:case.d_level ~db ~jobs:1
          ~ssi:case.d_ssi txns
      in
      diff_observe db
        ~decisions:
          (List.map
             (fun ws ->
               if Merge_oracle.committed m ws then "C"
               else Txn.abort_reason_to_string (Merge_oracle.abort_reason m ws))
             txns)
        ~counts:
          (Printf.sprintf "%d/%d/%d" (Merge_oracle.n_records m)
             (Merge_oracle.n_committed m) (Merge_oracle.n_dead m)))

let diff_kernel case =
  diff_run case (fun ~db ~defer txns ->
      let m =
        Epoch_merge.run ~defer ~level:case.d_level ~db ~jobs:1 ~ssi:case.d_ssi
          txns
      in
      diff_observe db
        ~decisions:
          (List.map
             (fun ws ->
               match Epoch_merge.verdict m ws with
               | None -> "C"
               | Some r -> Txn.abort_reason_to_string r)
             txns)
        ~counts:
          (Printf.sprintf "%d/%d/%d" (Epoch_merge.n_records m)
             (Epoch_merge.n_committed m) (Epoch_merge.n_dead m)))

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

let prop_kernel_matches_oracle =
  QCheck.Test.make ~name:"kernel = old kernel" ~count:400
    (QCheck.make ~print:print_diff_case gen_diff_case)
    (fun case ->
      let want = diff_oracle case and got = diff_kernel case in
      if got <> want then
        QCheck.Test.fail_reportf "\n  oracle: %s\n  kernel: %s"
          (String.concat "\n          " want)
          (String.concat "\n          " got);
      true)

let () =
  Alcotest.run "merge"
    [
      ( "kernel",
        [
          Alcotest.test_case "run ~jobs:2 raises Invalid_argument" `Quick
            test_jobs_2_rejected;
        ] );
      ( "column kernel",
        [
          Alcotest.test_case "column commits more than row" `Quick
            test_column_kernel_commits_more;
        ] );
      ( "differential",
        [ QCheck_alcotest.to_alcotest prop_kernel_matches_oracle ] );
    ]
