(* Parallel intra-node merge: the byte-identity contract.

   DESIGN.md §10: sharding the ACI merge across domains must be
   invisible in every output — database digests, the per-transaction
   commit/abort decisions and abort reasons, wire bytes, chaos-checker
   verdicts. These tests pin that contract at every layer: the pool
   shard helper, the extracted merge kernel, full cluster workloads
   (YCSB-style churn and TPC-C), and a checker sweep. *)

open Geogauss
module Value = Gg_storage.Value
module Table = Gg_storage.Table
module Db = Gg_storage.Db
module Pool = Gg_par.Pool
module Writeset = Gg_crdt.Writeset
module Meta = Gg_crdt.Meta
module Topology = Gg_sim.Topology
module Checker = Gg_check.Checker

(* --- Pool shard helpers --- *)

let test_map_shards_partition () =
  let xs = List.init 100 (fun i -> i) in
  let shards = Pool.map_shards ~jobs:4 ~key:(fun x -> x) xs ~f:(fun s -> s) in
  Alcotest.(check int) "one result per shard" 4 (List.length shards);
  List.iteri
    (fun shard items ->
      List.iter
        (fun x ->
          Alcotest.(check int)
            (Printf.sprintf "%d lands in its key shard" x)
            shard (x mod 4))
        items;
      (* items keep their submission order within the shard *)
      Alcotest.(check (list int))
        (Printf.sprintf "shard %d order preserved" shard)
        (List.filter (fun x -> x mod 4 = shard) xs)
        items)
    shards;
  Alcotest.(check (list int)) "no item lost" xs
    (List.sort compare (List.concat shards))

let test_map_shards_jobs1_single_call () =
  let calls = ref 0 in
  let r =
    Pool.map_shards ~jobs:1 ~key:(fun _ -> failwith "key unused at jobs=1")
      [ 1; 2; 3 ]
      ~f:(fun s ->
        incr calls;
        s)
  in
  Alcotest.(check int) "one call" 1 !calls;
  Alcotest.(check (list (list int))) "identity" [ [ 1; 2; 3 ] ] r

let test_map_shards_exception () =
  (* the lowest-index raising shard's exception surfaces, after all
     domains joined *)
  match
    Pool.map_shards ~jobs:4 ~key:(fun x -> x) [ 0; 1; 2; 3 ] ~f:(fun s ->
        match s with
        | [ x ] when x >= 2 -> failwith (string_of_int x)
        | _ -> ())
  with
  | _ -> Alcotest.fail "expected exception"
  | exception Failure m -> Alcotest.(check string) "lowest shard wins" "2" m

(* --- Table key sharding --- *)

let test_key_shard_refines_temp_shards () =
  (* merge widths are powers of two dividing temp_shard_count, so a
     merge shard is a union of temp shards: h mod j = (h mod 16) mod j.
     This is what makes concurrent temp_add race-free. *)
  let keys = List.init 200 (fun i -> Value.encode_key [| Value.Int i |]) in
  List.iter
    (fun j ->
      Alcotest.(check bool)
        (Printf.sprintf "%d divides temp_shard_count" j)
        true
        (Table.temp_shard_count mod j = 0);
      List.iter
        (fun k ->
          Alcotest.(check int)
            (Printf.sprintf "refinement at j=%d" j)
            (Table.key_shard ~shards:Table.temp_shard_count k mod j)
            (Table.key_shard ~shards:j k))
        keys)
    [ 1; 2; 4; 8; 16 ]

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
  (db, t)

let test_digest_shard_localises_changes () =
  let _, t1 = kv_db 64 in
  let _, t2 = kv_db 64 in
  let shards = 4 in
  let d table = List.init shards (fun s -> Table.digest_shard table ~shards ~shard:s) in
  Alcotest.(check (list string)) "identical tables, identical shard digests"
    (d t1) (d t2);
  (* mutate one key: only its shard's digest may move *)
  let key = Value.encode_key [| Value.Int 17 |] in
  let hit = Table.key_shard ~shards key in
  (match Table.find_live t2 key with
  | Some e -> e.Table.data.(1) <- Value.Int 999
  | None -> Alcotest.fail "row 17 missing");
  List.iteri
    (fun s (before, after) ->
      if s = hit then
        Alcotest.(check bool) "mutated shard digest changed" false
          (String.equal before after)
      else
        Alcotest.(check string)
          (Printf.sprintf "shard %d untouched" s)
          before after)
    (List.combine (d t1) (d t2))

(* --- The merge kernel --- *)

(* A contentious epoch: updates colliding across csn order, duplicate-key
   inserts, deletes, and a same-key insert/update race — everything the
   abort-reason bookkeeping has to order deterministically. *)
let contentious_epoch ~seed ~n_rows ~n_txns =
  let db, _ = kv_db n_rows in
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
              if roll < 70 then
                let k = Gg_util.Rng.int rng n_rows in
                Writeset.make_record ~table:"kv" ~key:[| Value.Int k |]
                  ~op:Writeset.Update
                  ~data:[| Value.Int k; Value.Int ((i * 10) + r) |]
                  ()
              else if roll < 90 then
                (* narrow insert range: duplicate-key marks are likely *)
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

let merge_outcome ~jobs ~ssi (db, txns) =
  let m = Epoch_merge.run ~threshold:0 ~db ~jobs ~ssi txns in
  let decisions =
    List.map
      (fun ws ->
        if Epoch_merge.committed m ws then "C"
        else Txn.abort_reason_to_string (Epoch_merge.abort_reason m ws))
      txns
  in
  ( Epoch_merge.n_committed m,
    Epoch_merge.n_dead m,
    decisions,
    Db.digest db )

let check_kernel_equal ~ssi ~seed =
  let c1, d1, dec1, dig1 =
    merge_outcome ~jobs:1 ~ssi (contentious_epoch ~seed ~n_rows:80 ~n_txns:120)
  in
  List.iter
    (fun jobs ->
      let c, d, dec, dig =
        merge_outcome ~jobs ~ssi
          (contentious_epoch ~seed ~n_rows:80 ~n_txns:120)
      in
      let tag s = Printf.sprintf "%s (jobs=%d, ssi=%b)" s jobs ssi in
      Alcotest.(check int) (tag "committed") c1 c;
      Alcotest.(check int) (tag "dead") d1 d;
      Alcotest.(check (list string)) (tag "per-txn decisions") dec1 dec;
      Alcotest.(check string) (tag "db digest") dig1 dig)
    [ 2; 4; 8 ]

let test_kernel_j1_vs_jn () =
  List.iter (fun seed -> check_kernel_equal ~ssi:false ~seed) [ 7; 42; 1_234 ]

let test_kernel_j1_vs_jn_ssi () = check_kernel_equal ~ssi:true ~seed:42

let test_kernel_threshold_gates_sharding () =
  (* below the record threshold the kernel must fall back to jobs=1 *)
  let inputs = contentious_epoch ~seed:9 ~n_rows:40 ~n_txns:10 in
  let db, txns = inputs in
  let m = Epoch_merge.run ~threshold:1_000_000 ~db ~jobs:8 ~ssi:false txns in
  Alcotest.(check int) "gated to sequential" 1 (Epoch_merge.jobs_used m)

let test_clamp_jobs () =
  List.iter
    (fun (req, want) ->
      Alcotest.(check int) (Printf.sprintf "clamp %d" req) want
        (Epoch_merge.clamp_jobs req))
    [ (-3, 1); (0, 1); (1, 1); (2, 2); (3, 2); (4, 4); (7, 4); (8, 8);
      (15, 8); (16, 16); (64, 16) ]

(* --- The column-level kernel (DESIGN.md §13) --- *)

(* Like [contentious_epoch], but Updates carry narrow column masks so
   the per-field claim/apply machinery is actually exercised: disjoint
   and overlapping masks on the same hot rows, plus deletes racing the
   masked updates. *)
let contentious_column_epoch ~seed ~n_rows ~n_txns =
  let db, _ = kv_db n_rows in
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

let column_merge_outcome ~jobs ~ssi (db, txns) =
  let m =
    Epoch_merge.run ~threshold:0 ~level:Params.Column ~db ~jobs ~ssi txns
  in
  let decisions =
    List.map
      (fun ws ->
        if Epoch_merge.committed m ws then "C"
        else Txn.abort_reason_to_string (Epoch_merge.abort_reason m ws))
      txns
  in
  (Epoch_merge.n_committed m, Epoch_merge.n_dead m, decisions, Db.digest db)

let test_column_kernel_j1_vs_jn () =
  List.iter
    (fun seed ->
      let c1, d1, dec1, dig1 =
        column_merge_outcome ~jobs:1 ~ssi:false
          (contentious_column_epoch ~seed ~n_rows:80 ~n_txns:120)
      in
      List.iter
        (fun jobs ->
          let c, d, dec, dig =
            column_merge_outcome ~jobs ~ssi:false
              (contentious_column_epoch ~seed ~n_rows:80 ~n_txns:120)
          in
          let tag s = Printf.sprintf "column %s (jobs=%d)" s jobs in
          Alcotest.(check int) (tag "committed") c1 c;
          Alcotest.(check int) (tag "dead") d1 d;
          Alcotest.(check (list string)) (tag "per-txn decisions") dec1 dec;
          Alcotest.(check string) (tag "db digest") dig1 dig)
        [ 2; 4; 8 ])
    [ 7; 42; 1_234 ]

let test_column_kernel_commits_more () =
  (* The whole point of the per-field lattice: masked same-row updates
     that collide under row-level first-writer-wins merge cleanly at
     column level. Same epoch, strictly fewer conflict aborts. *)
  let outcome level =
    let db, txns = contentious_column_epoch ~seed:42 ~n_rows:40 ~n_txns:150 in
    let m = Epoch_merge.run ~threshold:0 ~level ~db ~jobs:1 ~ssi:false txns in
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
   [Epoch_merge] at [jobs] 1 and 4 each merge it into a fresh copy of the
   same database; every observable must agree after every epoch. *)
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

let diff_kernel ~jobs case =
  diff_run case (fun ~db ~defer txns ->
      let m =
        Epoch_merge.run ~threshold:0 ~defer ~level:case.d_level ~db ~jobs
          ~ssi:case.d_ssi txns
      in
      diff_observe db
        ~decisions:
          (List.map
             (fun ws ->
               if Epoch_merge.committed m ws then "C"
               else Txn.abort_reason_to_string (Epoch_merge.abort_reason m ws))
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
  QCheck.Test.make ~name:"kernel = old kernel at jobs 1 and 4" ~count:400
    (QCheck.make ~print:print_diff_case gen_diff_case)
    (fun case ->
      let want = diff_oracle case in
      List.iter
        (fun jobs ->
          let got = diff_kernel ~jobs case in
          if got <> want then
            QCheck.Test.fail_reportf "jobs=%d:\n  oracle: %s\n  kernel: %s" jobs
              (String.concat "\n          " want)
              (String.concat "\n          " got))
        [ 1; 4 ];
      true)

(* --- Full cluster: workload-level byte equality --- *)

let converged_digests c =
  Cluster.quiesce c;
  Cluster.digests c

let cluster_outcome ?(merge_level = Params.Row) ~merge_jobs ~load ~gen_for () =
  let params =
    {
      Params.default with
      Params.seed = 6_060;
      merge_jobs;
      merge_level;
      (* force the sharded path on: epoch record counts in a short test
         run sit below the production threshold *)
      merge_par_threshold = (if merge_jobs > 1 then 0 else Params.default.Params.merge_par_threshold);
    }
  in
  let c =
    Cluster.create ~params ~topology:(Topology.china3 ()) ~load ()
  in
  let clients =
    List.init 3 (fun region ->
        let gen = gen_for region in
        let cl = Client.create c ~home:region ~connections:4 ~gen in
        Client.start cl;
        cl)
  in
  Cluster.run_for_ms c 1_000;
  List.iter Client.stop clients;
  let digests = converged_digests c in
  (Cluster.total_committed c, Cluster.total_aborted c, digests)

let check_cluster_equal ?merge_level ~name ~load ~gen_for () =
  let c1, a1, d1 = cluster_outcome ?merge_level ~merge_jobs:1 ~load ~gen_for () in
  let c4, a4, d4 = cluster_outcome ?merge_level ~merge_jobs:4 ~load ~gen_for () in
  Alcotest.(check int) (name ^ ": committed equal") c1 c4;
  Alcotest.(check int) (name ^ ": aborted equal") a1 a4;
  Alcotest.(check (list string)) (name ^ ": replica digests equal") d1 d4;
  match d1 with
  | d :: rest ->
    Alcotest.(check bool) (name ^ ": replicas converged") true
      (List.for_all (String.equal d) rest)
  | [] -> Alcotest.fail "no digests"

let test_cluster_ycsb_j1_vs_j4 () =
  let profile = Gg_workload.Ycsb.(with_records high_contention 400) in
  check_cluster_equal ~name:"ycsb"
    ~load:(Gg_workload.Ycsb.load profile)
    ~gen_for:(fun region ->
      let w = Gg_workload.Ycsb.create profile ~seed:(2_000 + region) in
      fun () -> Txn.Op_txn (Gg_workload.Ycsb.next_txn w))
    ()

let test_cluster_tpcc_j1_vs_j4 () =
  let cfg = Gg_workload.Tpcc.small in
  check_cluster_equal ~name:"tpcc"
    ~load:(Gg_workload.Tpcc.load cfg)
    ~gen_for:(fun region ->
      let w =
        Gg_workload.Tpcc.create cfg ~seed:(3_000 + region) ~node:region
      in
      fun () -> Txn.Op_txn (Gg_workload.Tpcc.next_txn w))
    ()

let test_cluster_hotkey_column_j1_vs_j4 () =
  (* The column kernel's sharded path under the nastiest workload we
     have: a rotating hot-key storm with narrow column masks. *)
  let profile = Gg_workload.Hotkey.(with_records base 300) in
  check_cluster_equal ~merge_level:Params.Column ~name:"hotkey/column"
    ~load:(Gg_workload.Hotkey.load profile)
    ~gen_for:(fun region ->
      let w = Gg_workload.Hotkey.create profile ~seed:(4_000 + region) in
      fun () -> Txn.Op_txn (Gg_workload.Hotkey.next_txn w))
    ()

(* --- Chaos checker sweep parity --- *)

let test_checker_sweep_merge_jobs_parity () =
  let quiet _ = () in
  let r1 = Checker.check ~log:quiet ~fast:true ~seeds:4 () in
  let r2 = Checker.check ~log:quiet ~fast:true ~merge_jobs:2 ~seeds:4 () in
  Alcotest.(check int) "no violations at merge_jobs=1" 0
    (List.length r1.Checker.failures);
  Alcotest.(check int) "no violations at merge_jobs=2" 0
    (List.length r2.Checker.failures);
  Alcotest.(check int) "commit totals equal" r1.Checker.total_commits
    r2.Checker.total_commits;
  Alcotest.(check int) "seeds equal" r1.Checker.seeds_run r2.Checker.seeds_run

let () =
  Alcotest.run "merge_par"
    [
      ( "pool",
        [
          Alcotest.test_case "map_shards partitions by key" `Quick
            test_map_shards_partition;
          Alcotest.test_case "map_shards jobs=1 is a single call" `Quick
            test_map_shards_jobs1_single_call;
          Alcotest.test_case "map_shards lowest-shard exception" `Quick
            test_map_shards_exception;
        ] );
      ( "sharding",
        [
          Alcotest.test_case "merge shards refine temp shards" `Quick
            test_key_shard_refines_temp_shards;
          Alcotest.test_case "digest_shard localises changes" `Quick
            test_digest_shard_localises_changes;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "j1 vs j{2,4,8} identical" `Quick
            test_kernel_j1_vs_jn;
          Alcotest.test_case "j1 vs jN identical under SSI" `Quick
            test_kernel_j1_vs_jn_ssi;
          Alcotest.test_case "threshold gates sharding" `Quick
            test_kernel_threshold_gates_sharding;
          Alcotest.test_case "clamp_jobs powers of two" `Quick
            test_clamp_jobs;
        ] );
      ( "column kernel",
        [
          Alcotest.test_case "column j1 vs j{2,4,8} identical" `Quick
            test_column_kernel_j1_vs_jn;
          Alcotest.test_case "column commits more than row" `Quick
            test_column_kernel_commits_more;
        ] );
      ( "differential",
        [ QCheck_alcotest.to_alcotest prop_kernel_matches_oracle ] );
      ( "cluster",
        [
          Alcotest.test_case "YCSB j1 vs j4 byte-equal" `Slow
            test_cluster_ycsb_j1_vs_j4;
          Alcotest.test_case "TPC-C j1 vs j4 byte-equal" `Slow
            test_cluster_tpcc_j1_vs_j4;
          Alcotest.test_case "hotkey column-level j1 vs j4 byte-equal" `Slow
            test_cluster_hotkey_column_j1_vs_j4;
        ] );
      ( "checker",
        [
          Alcotest.test_case "mj=2 sweep matches mj=1" `Slow
            test_checker_sweep_merge_jobs_parity;
        ] );
    ]
