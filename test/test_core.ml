(* End-to-end tests of the GeoGauss core: epoch-based multi-master OCC
   over the simulated geo-distributed cluster. These validate the
   paper's Theorem 3 (replica consistency at epoch granularity), the
   isolation levels, the execution variants, CRDT robustness to
   duplication/reordering, and failure handling. *)

open Geogauss
module Value = Gg_storage.Value
module Topology = Gg_sim.Topology
module Op = Gg_workload.Op

let kv_load n db =
  let table =
    Gg_storage.Db.create_table db ~name:"kv"
      ~columns:
        [
          { Gg_storage.Schema.name = "k"; ty = Gg_storage.Schema.TInt };
          { name = "v"; ty = TInt };
          { name = "pad"; ty = TStr };
        ]
      ~key:[ "k" ]
  in
  for i = 0 to n - 1 do
    Gg_storage.Table.load table [| Value.Int i; Value.Int 0; Value.Str "x" |]
  done

let make_cluster ?params ?(n_rows = 200) ?(topo = Topology.china3 ()) ?dup
    ?reorder () =
  Cluster.create ?params ?dup ?reorder ~topology:topo ~load:(kv_load n_rows) ()

let write_txn ?(sen_pad = 0) k v =
  ignore sen_pad;
  Txn.Op_txn
    (Op.make ~label:"w"
       [ Op.Write { table = "kv"; key = [| Value.Int k |]; data = [| Value.Int k; Value.Int v; Value.Str "x" |] } ])

let read_txn k =
  Txn.Op_txn (Op.make ~label:"r" [ Op.Read { table = "kv"; key = [| Value.Int k |] } ])

let add_txn k delta =
  Txn.Op_txn
    (Op.make ~label:"add" [ Op.Add { table = "kv"; key = [| Value.Int k |]; col = 1; delta } ])

let run_ms c ms = Cluster.run_for_ms c ms

let submit_wait c ~node req =
  let result = ref None in
  Cluster.submit c ~node req (fun o -> result := Some o);
  result

let check_converged ?(msg = "replicas converged") c =
  Cluster.quiesce c;
  match Cluster.digests c with
  | [] -> Alcotest.fail "no nodes"
  | d :: rest -> List.iter (fun d' -> Alcotest.(check string) msg d d') rest

(* --- op-level executor unit tests --- *)

let fresh_db () =
  let db = Gg_storage.Db.create () in
  kv_load 10 db;
  db

let test_op_exec_read_records_version () =
  let db = fresh_db () in
  let t = Op.make [ Op.Read { table = "kv"; key = [| Value.Int 3 |] } ] in
  match Op_exec.exec ~record_reads:true db t with
  | Ok { Op_exec.reads; writes } ->
    Alcotest.(check int) "one read" 1 (List.length reads);
    Alcotest.(check int) "no writes" 0 (List.length writes)
  | Error m -> Alcotest.failf "unexpected: %s" m

let test_op_exec_add_reads_then_writes () =
  let db = fresh_db () in
  let t = Op.make [ Op.Add { table = "kv"; key = [| Value.Int 3 |]; col = 1; delta = 5 } ] in
  match Op_exec.exec ~record_reads:true db t with
  | Ok { Op_exec.reads; writes } ->
    Alcotest.(check int) "read recorded" 1 (List.length reads);
    (match writes with
    | [ { Gg_crdt.Writeset.op = Gg_crdt.Writeset.Update; data; _ } ] ->
      Alcotest.(check bool) "incremented" true (Value.equal data.(1) (Value.Int 5))
    | _ -> Alcotest.fail "expected one update")
  | Error m -> Alcotest.failf "unexpected: %s" m

let test_op_exec_rmw_chains_within_txn () =
  (* Two Adds to the same row see each other (read-your-writes) and
     coalesce to one record. *)
  let db = fresh_db () in
  let t =
    Op.make
      [
        Op.Add { table = "kv"; key = [| Value.Int 4 |]; col = 1; delta = 3 };
        Op.Add { table = "kv"; key = [| Value.Int 4 |]; col = 1; delta = 4 };
      ]
  in
  match Op_exec.exec db t with
  | Ok { Op_exec.writes = [ { Gg_crdt.Writeset.data; _ } ]; _ } ->
    Alcotest.(check bool) "chained to 7" true (Value.equal data.(1) (Value.Int 7))
  | Ok _ -> Alcotest.fail "expected one coalesced record"
  | Error m -> Alcotest.failf "unexpected: %s" m

let test_op_exec_insert_then_delete_cancels () =
  let db = fresh_db () in
  let t =
    Op.make
      [
        Op.Insert { table = "kv"; key = [| Value.Int 99 |]; data = [| Value.Int 99; Value.Int 1; Value.Str "n" |] };
        Op.Delete { table = "kv"; key = [| Value.Int 99 |] };
      ]
  in
  match Op_exec.exec db t with
  | Ok { Op_exec.writes; _ } -> Alcotest.(check int) "no net writes" 0 (List.length writes)
  | Error m -> Alcotest.failf "unexpected: %s" m

let test_op_exec_errors () =
  let db = fresh_db () in
  let check_err label t =
    match Op_exec.exec db t with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s should fail" label
  in
  check_err "add missing row"
    (Op.make [ Op.Add { table = "kv"; key = [| Value.Int 999 |]; col = 1; delta = 1 } ]);
  check_err "delete missing row"
    (Op.make [ Op.Delete { table = "kv"; key = [| Value.Int 999 |] } ]);
  check_err "duplicate insert"
    (Op.make [ Op.Insert { table = "kv"; key = [| Value.Int 1 |]; data = [| Value.Int 1; Value.Int 0; Value.Str "d" |] } ]);
  check_err "unknown table"
    (Op.make [ Op.Read { table = "zz"; key = [| Value.Int 1 |] } ]);
  check_err "add non-integer column"
    (Op.make [ Op.Add { table = "kv"; key = [| Value.Int 1 |]; col = 2; delta = 1 } ])

let test_op_exec_read_missing_is_noop () =
  let db = fresh_db () in
  let t = Op.make [ Op.Read { table = "kv"; key = [| Value.Int 999 |] } ] in
  match Op_exec.exec ~record_reads:true db t with
  | Ok { Op_exec.reads; writes } ->
    Alcotest.(check int) "no read recorded" 0 (List.length reads);
    Alcotest.(check int) "no writes" 0 (List.length writes)
  | Error m -> Alcotest.failf "unexpected: %s" m

let prop_op_exec_unique_keys =
  (* Whatever the op sequence, the produced write set holds at most one
     record per (table, key) — the invariant the merge relies on. *)
  let gen_ops =
    QCheck.Gen.(
      list_size (int_range 1 12)
        (map2
           (fun kind k ->
             let key = [| Value.Int (k mod 12) |] in
             let data = [| Value.Int (k mod 12); Value.Int k; Value.Str "q" |] in
             match kind mod 5 with
             | 0 -> Op.Read { table = "kv"; key }
             | 1 -> Op.Write { table = "kv"; key; data }
             | 2 -> Op.Add { table = "kv"; key; col = 1; delta = 1 }
             | 3 -> Op.Insert { table = "kv"; key = [| Value.Int (100 + (k mod 7)) |]; data = [| Value.Int (100 + (k mod 7)); Value.Int 0; Value.Str "i" |] }
             | _ -> Op.Delete { table = "kv"; key })
           (int_range 0 99) (int_range 0 999)))
  in
  QCheck.Test.make ~name:"op_exec write sets have unique keys" ~count:300
    (QCheck.make gen_ops) (fun ops ->
      let db = Gg_storage.Db.create () in
      kv_load 12 db;
      match Op_exec.exec db (Op.make ops) with
      | Error _ -> true (* rejected op sequences are fine *)
      | Ok { Op_exec.writes; _ } ->
        let keys = List.map (fun r -> (r.Gg_crdt.Writeset.table, Gg_crdt.Writeset.key_str r)) writes in
        List.length keys = List.length (List.sort_uniq compare keys))

(* Op sequences over two tables holding the same keys, with 20 of each
   table's 80 keys missing. *)
module Read_model = struct
  let tables = [| "kv"; "kv2" |] and n_keys = 80 and n_loaded = 60

  let load db =
    Array.iter
      (fun name ->
        let t =
          Gg_storage.Db.create_table db ~name
            ~columns:
              [
                { Gg_storage.Schema.name = "k"; ty = Gg_storage.Schema.TInt };
                { name = "v"; ty = TInt };
              ]
            ~key:[ "k" ]
        in
        for i = 0 to n_loaded - 1 do
          Gg_storage.Table.load t [| Value.Int i; Value.Int 0 |]
        done)
      tables

  let gen_op =
    QCheck.Gen.(
      map3
        (fun kind ti k ->
          let table = tables.(ti) and key = [| Value.Int k |] in
          let data = [| Value.Int k; Value.Int 1 |] in
          match kind with
          | 0 | 1 | 2 | 3 | 4 | 5 -> Op.Read { table; key }
          | 6 -> Op.Write { table; key; data }
          | 7 -> Op.Add { table; key; col = 1; delta = 1 }
          | 8 -> Op.Insert { table; key; data }
          | _ -> Op.Delete { table; key })
        (int_range 0 9) (int_range 0 1) (int_range 0 (n_keys - 1)))

  let print ops =
    String.concat "; "
      (List.map
         (fun op ->
           let k = Value.to_string (Op.op_key op).(0) in
           let kind =
             match op with
             | Op.Read _ -> "R" | Op.Write _ -> "W" | Op.Add _ -> "A"
             | Op.Insert _ -> "I" | Op.Delete _ -> "D"
           in
           Printf.sprintf "%s %s.%s" kind (Op.op_table op) k)
         ops)
end

(* The read set against a reference model of read-your-writes
   visibility: a read is recorded for an op that sees the base row (a
   [Read], [Add] or [Delete] with no live own write of the key in front
   of it), once per (table, key), in first-read order. Transactions run
   long enough to pass the executor's linear read-dedup bound. *)
type own = Own_live | Own_deleted | Own_dead

let prop_op_exec_read_set_model =
  let open Read_model in
  (* The ops the executor must accept — each op the model would reject
     ([Add]/[Delete] of an absent row, [Insert] over a visible one) is
     dropped — and their expected read set as (table, key). *)
  let model ops =
    let own = Hashtbl.create 64 and reads = ref [] in
    let visible table k =
      match Hashtbl.find_opt own (table, k) with
      | Some Own_live -> `Own
      | Some Own_deleted -> `Absent
      | Some Own_dead | None -> if k < n_loaded then `Base else `Absent
    in
    let read table k =
      if not (List.mem (table, k) !reads) then reads := (table, k) :: !reads
    in
    let accepts op =
      let table = Op.op_table op in
      let k = match Op.op_key op with [| Value.Int k |] -> k | _ -> assert false in
      let vis = visible table k in
      let set s = Hashtbl.replace own (table, k) s in
      match (op, vis) with
      | Op.Read _, `Base ->
        read table k;
        true
      | Op.Read _, (`Own | `Absent) -> true
      | Op.Write _, _ | Op.Insert _, `Absent ->
        set Own_live;
        true
      | (Op.Add _ | Op.Delete _), `Absent | Op.Insert _, (`Own | `Base) -> false
      | Op.Add _, (`Base | `Own) ->
        if vis = `Base then read table k;
        set Own_live;
        true
      | Op.Delete _, (`Base | `Own) ->
        if vis = `Base then read table k;
        set (if k < n_loaded then Own_deleted else Own_dead);
        true
    in
    let accepted = List.filter accepts ops in
    (accepted, List.rev !reads)
  in
  QCheck.Test.make ~name:"op_exec read set = first base-visible reads" ~count:300
    (QCheck.make ~print QCheck.Gen.(list_size (int_range 1 160) gen_op))
    (fun ops ->
      let db = Gg_storage.Db.create () in
      load db;
      let ops, expected = model ops in
      match Op_exec.exec ~record_reads:true db (Op.make ops) with
      | Error m -> QCheck.Test.fail_reportf "rejected (%s), model accepts" m
      | Ok { Op_exec.reads; _ } ->
        let got =
          List.map
            (fun (r : Gg_sql.Executor.read_record) -> (r.r_table, r.r_key_str))
            reads
        in
        let expected =
          List.map
            (fun (table, k) -> (table, Value.encode_key [| Value.Int k |]))
            expected
        in
        got = expected)

(* The same ops with the read set off, as node runs them at RC: the
   same outcome and writes, and no reads. Rejected sequences included. *)
let prop_op_exec_reads_off =
  let open Read_model in
  let run ~record_reads ops =
    let db = Gg_storage.Db.create () in
    load db;
    Result.map
      (fun { Op_exec.reads; writes } ->
        ( reads,
          List.map
            (fun r -> Gg_crdt.Writeset.(r.table, key_str r, r.op, r.data, r.cols))
            writes ))
      (Op_exec.exec ~record_reads db (Op.make ops))
  in
  QCheck.Test.make ~name:"op_exec reads off: same writes, no reads" ~count:300
    (QCheck.make ~print QCheck.Gen.(list_size (int_range 1 160) gen_op))
    (fun ops ->
      match (run ~record_reads:true ops, run ~record_reads:false ops) with
      | Ok (_, on), Ok (off_reads, off) -> on = off && off_reads = []
      | Error a, Error b -> a = b
      | Ok _, Error _ | Error _, Ok _ -> false)

(* Transactions as the workloads draw them (YCSB-MC, TPC-C New-Order
   and Payment, hotkey) over one database holding all their tables, with
   hand-built ops spliced in: a read of a missing row, a read of the row
   the op before wrote, a delete of that row followed by a read of it,
   and a read of an unknown table. With the read set off a read probes
   no row, and that must not show: the same outcome (the same error
   message) and write set as the probing path, and no reads. [exec]
   does not mutate the database, so one load serves every case. *)
let prop_op_exec_rc_reads_differential =
  let module W = Gg_workload in
  let ycsb = W.Ycsb.with_records W.Ycsb.medium_contention 500 in
  let hot = W.Hotkey.with_records W.Hotkey.base 500 in
  let db =
    lazy
      (let db = Gg_storage.Db.create () in
       W.Ycsb.load ycsb db;
       W.Hotkey.load hot db;
       W.Tpcc.load W.Tpcc.small db;
       db)
  in
  (* The [skip + 1]-th transaction of a [source] generator. *)
  let draw source ~seed ~skip =
    let next =
      match source with
      | 0 ->
        let g = W.Ycsb.create ycsb ~seed in
        fun () -> W.Ycsb.next_txn g
      | 1 ->
        let g = W.Tpcc.create W.Tpcc.small ~seed ~node:0 in
        fun () -> W.Tpcc.new_order g
      | 2 ->
        let g = W.Tpcc.create W.Tpcc.small ~seed ~node:0 in
        fun () -> W.Tpcc.payment g
      | _ ->
        let g = W.Hotkey.create hot ~seed in
        fun () -> W.Hotkey.next_txn g
    in
    for _ = 1 to skip do
      ignore (next ())
    done;
    Array.to_list (next ()).Op.ops
  in
  let splice ops (pos, kind, k) =
    let pos = pos mod (List.length ops + 1) in
    let before = List.filteri (fun i _ -> i < pos) ops
    and after = List.filteri (fun i _ -> i >= pos) ops in
    let prev = match List.rev before with op :: _ -> Some op | [] -> None in
    let extra =
      match (kind, prev) with
      | 0, _ | (1 | 2), None ->
        [ Op.Read { table = W.Ycsb.table_name; key = W.Ycsb.key_of (500 + k) } ]
      | 1, Some op -> [ Op.Read { table = Op.op_table op; key = Op.op_key op } ]
      | 2, Some op ->
        let table = Op.op_table op and key = Op.op_key op in
        [ Op.Delete { table; key }; Op.Read { table; key } ]
      | _ -> [ Op.Read { table = "nope"; key = [| Value.Int k |] } ]
    in
    before @ extra @ after
  in
  let gen =
    QCheck.Gen.(
      map2
        (fun (source, seed, skip) splices ->
          List.fold_left splice (draw source ~seed ~skip) splices)
        (triple (int_range 0 3) (int_range 0 9_999) (int_range 0 7))
        (list_size (int_range 0 4)
           (triple (int_range 0 40)
              (frequency [ (3, return 0); (3, return 1); (3, return 2); (1, return 3) ])
              (int_range 0 99))))
  in
  let run ?record_reads ops =
    Result.map
      (fun { Op_exec.reads; writes } ->
        ( reads,
          List.map
            (fun r -> Gg_crdt.Writeset.(r.table, key_str r, r.op, r.data, r.cols))
            writes ))
      (Op_exec.exec ?record_reads (Lazy.force db) (Op.make ops))
  in
  QCheck.Test.make ~name:"op_exec RC reads = probing reads on workload txns"
    ~count:400 (QCheck.make ~print:Read_model.print gen) (fun ops ->
      match (run ops, run ~record_reads:true ops) with
      | Ok (off_reads, off), Ok (_, on) -> off = on && off_reads = []
      | Error a, Error b -> String.equal a b
      | Ok _, Error _ | Error _, Ok _ -> false)

(* The op executor and the SQL executor are two front ends over one
   transaction: the same key-level ops, run once through [Op_exec.exec]
   and once as the equivalent statements in one [Executor.Ctx], give the
   same write-set records in the same order and the same read set, with
   the read set and column tracking each off and on. The ops are drawn
   against a model of the visible rows, so every one is accepted: [Add]
   and [Delete] hit a visible row, [Insert] an absent one. [Write] has
   no SQL form and is left out. *)
let prop_op_exec_matches_sql =
  let n_keys = 6 and n_loaded = 4 in
  let ops_of draws =
    let visible = Array.init n_keys (fun k -> k < n_loaded) in
    List.filter_map
      (fun (kind, k, x) ->
        let table = "kv" and key = [| Value.Int k |] in
        match kind with
        | 0 -> Some (Op.Read { table; key })
        | 1 when visible.(k) -> Some (Op.Add { table; key; col = 1; delta = x })
        | 2 when not visible.(k) ->
          visible.(k) <- true;
          Some
            (Op.Insert
               { table; key; data = [| Value.Int k; Value.Int x; Value.Str "i" |] })
        | 3 when visible.(k) ->
          visible.(k) <- false;
          Some (Op.Delete { table; key })
        | _ -> None)
      draws
  in
  let stmt_of = function
    | Op.Read { key; _ } -> ("SELECT * FROM kv WHERE k = ?", key)
    | Op.Add { key; delta; _ } ->
      ("UPDATE kv SET v = v + ? WHERE k = ?", [| Value.Int delta; key.(0) |])
    | Op.Insert { data; _ } -> ("INSERT INTO kv (k, v, pad) VALUES (?, ?, ?)", data)
    | Op.Delete { key; _ } -> ("DELETE FROM kv WHERE k = ?", key)
    | Op.Write _ -> invalid_arg "Write has no SQL form"
  in
  let outcome reads writes =
    ( reads,
      List.map
        (fun r -> Gg_crdt.Writeset.(r.table, key_str r, r.key, r.op, r.data, r.cols))
        writes )
  in
  let via_ops ~record_reads ~track_cols ops =
    let db = Gg_storage.Db.create () in
    kv_load n_loaded db;
    match Op_exec.exec ~record_reads ~col_mask:track_cols db (Op.make ops) with
    | Ok { Op_exec.reads; writes } -> Ok (outcome reads writes)
    | Error m -> Error m
  in
  let via_sql ~record_reads ~track_cols ops =
    let db = Gg_storage.Db.create () in
    kv_load n_loaded db;
    let ctx = Gg_sql.Executor.Ctx.create ~record_reads ~track_cols db in
    let rec go = function
      | [] ->
        Ok
          (outcome
             (Gg_sql.Executor.Ctx.read_set ctx)
             (Gg_sql.Executor.Ctx.writeset_records ctx))
      | op :: rest -> (
        let sql, params = stmt_of op in
        match Gg_sql.Executor.exec_sql ctx sql ~params with
        | Ok _ -> go rest
        | Error m -> Error m)
    in
    go ops
  in
  QCheck.Test.make ~name:"op_exec = SQL statements in one Executor.Ctx" ~count:500
    (QCheck.make
       ~print:(fun draws -> Read_model.print (ops_of draws))
       QCheck.Gen.(
         list_size (int_range 1 24)
           (triple (int_range 0 3) (int_range 0 (n_keys - 1)) (int_range 1 9))))
    (fun draws ->
      let ops = ops_of draws in
      List.for_all
        (fun (record_reads, track_cols) ->
          match
            (via_ops ~record_reads ~track_cols ops, via_sql ~record_reads ~track_cols ops)
          with
          | Ok a, Ok b -> a = b
          | Error m, _ | _, Error m ->
            QCheck.Test.fail_reportf "rejected (%s), model accepts" m)
        [ (false, false); (false, true); (true, false); (true, true) ])

let test_op_exec_rc_read_unknown_table () =
  let db = fresh_db () in
  let t =
    Op.make
      [
        Op.Read { table = "kv"; key = [| Value.Int 3 |] };
        Op.Read { table = "zz"; key = [| Value.Int 1 |] };
      ]
  in
  match Op_exec.exec db t with
  | Error m -> Alcotest.(check string) "message" "unknown table zz" m
  | Ok _ -> Alcotest.fail "a read of an unknown table must fail at RC"

(* --- the execution stage: Algorithm 1 up to the commit point --- *)

let stage ?(db = fresh_db ()) iso =
  let sim = Gg_sim.Sim.create () in
  let params = Params.with_isolation Params.default iso in
  (sim, Execution.create params ~sim ~cpu:(Gg_sim.Cpu.create sim ~cores:1) ~db)

let stage_txn ?(lsn = 0) req =
  let txn =
    Txn.create ~id:0 ~node:0 ~request:req ~submit_time:0 ~callback:ignore
  in
  txn.Txn.lsn <- lsn;
  txn

let kv_entry db k =
  let table = Option.get (Gg_storage.Db.get_table db "kv") in
  (table, Option.get (Gg_storage.Table.find table (Value.encode_key [| Value.Int k |])))

(* Txn [txn] read row [k] as it stands in [db] now. *)
let read_now db txn k =
  let _, e = kv_entry db k in
  let h = e.Gg_storage.Table.header in
  txn.Txn.read_set <-
    { Gg_sql.Executor.r_table = "kv"; r_key_str = e.Gg_storage.Table.key_str;
      r_csn = h.Gg_storage.Row_header.csn; r_cen = h.Gg_storage.Row_header.cen }
    :: txn.Txn.read_set

let rewrite db k ~cen =
  let _, e = kv_entry db k in
  Gg_storage.Row_header.stamp e.Gg_storage.Table.header ~sen:cen ~cen
    ~csn:(Gg_storage.Csn.make ~ts:(1000 * cen) ~node:1)

let vanished txn =
  txn.Txn.read_set <-
    { Gg_sql.Executor.r_table = "kv"; r_key_str = Value.encode_key [| Value.Int 99 |];
      r_csn = Gg_storage.Csn.zero; r_cen = -1 }
    :: txn.Txn.read_set

let all_isolations = Params.[ RC; RR; SI; SSI ]

let test_stage_rc_accepts_every_read () =
  let db = fresh_db () in
  let _, x = stage ~db Params.RC in
  let txn = stage_txn (read_txn 1) in
  List.iter (read_now db txn) [ 1; 2; 3 ];
  vanished txn;
  rewrite db 1 ~cen:9;
  let table, e = kv_entry db 2 in
  Gg_storage.Table.delete table e;
  Alcotest.(check bool) "RC: moved, tombstoned and vanished reads pass" true
    (Execution.valid x txn)

let test_stage_rr_same_csn () =
  let db = fresh_db () in
  let _, x = stage ~db Params.RR in
  let txn = stage_txn (read_txn 1) in
  read_now db txn 1;
  Alcotest.(check bool) "unchanged row passes" true (Execution.valid x txn);
  (* Same csn, later epoch: RR compares versions only. *)
  (snd (kv_entry db 1)).Gg_storage.Table.header.Gg_storage.Row_header.cen <- 7;
  Alcotest.(check bool) "same csn at a later cen passes" true
    (Execution.valid x txn);
  rewrite db 1 ~cen:1;
  Alcotest.(check bool) "changed csn aborts" false (Execution.valid x txn)

let test_stage_si_snapshot_rule () =
  List.iter
    (fun iso ->
      let name = Params.isolation_to_string iso in
      let db = fresh_db () in
      let _, x = stage ~db iso in
      let txn = stage_txn ~lsn:5 (read_txn 1) in
      read_now db txn 1;
      rewrite db 1 ~cen:6;
      Alcotest.(check bool) (name ^ ": cen - 1 = lsn passes") true
        (Execution.valid x txn);
      rewrite db 1 ~cen:7;
      Alcotest.(check bool) (name ^ ": cen - 1 > lsn aborts") false
        (Execution.valid x txn))
    Params.[ SI; SSI ]

let test_stage_gone_rows_abort () =
  List.iter
    (fun iso ->
      let name = Params.isolation_to_string iso in
      let db = fresh_db () in
      let _, x = stage ~db iso in
      let txn = stage_txn (read_txn 1) in
      vanished txn;
      Alcotest.(check bool) (name ^ ": vanished row aborts") false
        (Execution.valid x txn);
      let txn = stage_txn (read_txn 1) in
      read_now db txn 1;
      let table, e = kv_entry db 1 in
      Gg_storage.Table.delete table e;
      Alcotest.(check bool) (name ^ ": tombstoned row aborts") false
        (Execution.valid x txn))
    Params.[ RR; SI; SSI ]

(* Execute [req] through the stage and return the finished transaction
   and its verdict. *)
let stage_run ?db iso req =
  let sim, x = stage ?db iso in
  let txn = stage_txn req in
  let verdict = ref None in
  Execution.run x txn (fun v -> verdict := Some v);
  Gg_sim.Sim.run sim;
  (x, txn, !verdict)

let test_stage_read_keys () =
  List.iter
    (fun iso ->
      let name = Params.isolation_to_string iso in
      match stage_run iso (add_txn 1 5) with
      | x, txn, Some Execution.Commit_point ->
        let ws = Option.get txn.Txn.writeset in
        let csn = Gg_storage.Csn.make ~ts:10 ~node:0 in
        let ws = Execution.stamp x txn ws ~cen:3 ~csn in
        Alcotest.(check int) (name ^ ": stamped cen") 3 txn.Txn.cen;
        Alcotest.(check bool) (name ^ ": stamped write set recorded") true
          (txn.Txn.writeset = Some ws);
        Alcotest.(check int) (name ^ ": shipped read keys")
          (if iso = Params.SSI then 1 else 0)
          (List.length ws.Gg_crdt.Writeset.read_keys)
      | _ -> Alcotest.fail (name ^ ": no commit point"))
    all_isolations

let test_stage_rc_no_read_set () =
  let sql =
    Txn.Sql_txn
      { label = "q"; stmts = [ ("SELECT v FROM kv WHERE k = 1", [||]) ] }
  in
  List.iter
    (fun iso ->
      let name = Params.isolation_to_string iso in
      List.iter
        (fun req ->
          match stage_run iso req with
          | _, txn, Some Execution.Commit_point ->
            Alcotest.(check int) (name ^ ": read set")
              (if iso = Params.RC then 0 else 1)
              (List.length txn.Txn.read_set)
          | _ -> Alcotest.fail (name ^ ": no commit point"))
        [ read_txn 1; sql ])
    all_isolations

let test_stage_failed () =
  match stage_run Params.SI (add_txn 99 1) with
  | _, _, Some (Execution.Failed _) -> ()
  | _ -> Alcotest.fail "an Add on a missing row fails execution"

(* The stage parses each SQL text once and runs later statements from
   the kept AST. Every generated statement of Sqlgen.Scan and
   Sqlgen.Secidx must give, through one stage, the results, writes and
   (at SI) reads that [Executor.exec_sql] gives on the same database. *)
let test_stage_statement_cache () =
  let db = Gg_storage.Db.create () in
  Gg_workload.Sqlgen.Scan.(load (with_records base 300)) db;
  Gg_workload.Sqlgen.Secidx.(load (with_records base 300)) db;
  let scan = Gg_workload.Sqlgen.Scan.(create (with_records base 300) ~seed:3) in
  let secidx =
    Gg_workload.Sqlgen.Secidx.(create (with_records base 300) ~seed:4)
  in
  let writes records =
    List.map
      (fun r -> Gg_crdt.Writeset.(r.table, key_str r, r.op, r.data, r.cols))
      records
  in
  List.iter
    (fun iso ->
      let name = Params.isolation_to_string iso in
      let sim, x = stage ~db iso in
      for i = 1 to 120 do
        let label, stmts =
          if i mod 2 = 0 then Gg_workload.Sqlgen.Scan.next_stmts scan
          else Gg_workload.Sqlgen.Secidx.next_stmts secidx
        in
        let txn = stage_txn (Txn.Sql_txn { label; stmts }) in
        let verdict = ref None in
        Execution.run x txn (fun v -> verdict := Some v);
        Gg_sim.Sim.run sim;
        if !verdict <> Some Execution.Commit_point then
          Alcotest.failf "%s: %s has no commit point" name label;
        let ctx = Gg_sql.Executor.Ctx.create ~record_reads:(iso <> Params.RC) db in
        let results =
          List.map
            (fun (sql, params) ->
              match Gg_sql.Executor.exec_sql ctx sql ~params with
              | Ok r -> r
              | Error m -> Alcotest.failf "%s: %s: %s" name sql m)
            stmts
        in
        Alcotest.(check bool) (name ^ ": results of " ^ label) true
          (txn.Txn.sql_results = results);
        Alcotest.(check bool) (name ^ ": writes of " ^ label) true
          (writes
             (match txn.Txn.writeset with
             | Some ws -> ws.Gg_crdt.Writeset.records
             | None -> [])
          = writes (Gg_sql.Executor.Ctx.writeset_records ctx));
        Alcotest.(check bool) (name ^ ": reads of " ^ label) true
          (txn.Txn.read_set = Gg_sql.Executor.Ctx.read_set ctx)
      done;
      Alcotest.(check int) (name ^ ": one parse per distinct text") 6
        (Execution.cached_statements x))
    Params.[ RC; SI ]

let run_sql x sim stmts =
  let txn =
    stage_txn
      (Txn.Sql_txn
         { label = "q"; stmts = List.map (fun sql -> (sql, [||])) stmts })
  in
  let verdict = ref None in
  Execution.run x txn (fun v -> verdict := Some v);
  Gg_sim.Sim.run sim;
  !verdict

(* A text that does not parse is kept with its error: the same message
   on every use, and the statements after it still run. *)
let test_stage_cached_parse_error () =
  let db = fresh_db () in
  let sim, x = stage ~db Params.RC in
  let bad = "SELEC v FROM kv" in
  let want =
    match Gg_sql.Executor.exec_sql (Gg_sql.Executor.Ctx.create db) bad ~params:[||] with
    | Error m -> m
    | Ok _ -> Alcotest.fail "the malformed text parsed"
  in
  let failed what =
    match run_sql x sim [ bad ] with
    | Some (Execution.Failed m) -> Alcotest.(check string) what want m
    | _ -> Alcotest.fail (what ^ ": not Failed")
  in
  failed "first use";
  failed "repeat";
  Alcotest.(check bool) "a valid statement after it runs" true
    (run_sql x sim [ "SELECT v FROM kv WHERE k = 1" ]
    = Some Execution.Commit_point);
  Alcotest.(check int) "both texts kept" 2 (Execution.cached_statements x)

(* Past 256 distinct texts the table starts over rather than grow. *)
let test_stage_statement_cache_bound () =
  let sim, x = stage Params.RC in
  let texts = List.init 300 (Printf.sprintf "SELECT v FROM kv WHERE k = %d") in
  let most = ref 0 in
  List.iter
    (fun sql ->
      ignore (run_sql x sim [ sql ]);
      most := max !most (Execution.cached_statements x))
    texts;
  Alcotest.(check int) "never past the cap" 256 !most;
  Alcotest.(check int) "started over at the cap" (300 - 256)
    (Execution.cached_statements x)

(* --- cluster set-up --- *)

(* [Cluster.create] runs [load] once and gives the other replicas copies
   of that image: each equals a fresh load (secondary index included),
   and a row written on one replica is not shared with another. *)
let test_create_copies_one_load () =
  let load db =
    kv_load 50 db;
    Gg_storage.Table.create_index
      (Gg_storage.Db.get_table_exn db "kv")
      ~name:"by_v" ~cols:[ "v" ]
  in
  let calls = ref 0 in
  let c =
    Cluster.create ~topology:(Topology.china3 ())
      ~load:(fun db ->
        incr calls;
        load db)
      ()
  in
  Alcotest.(check int) "load ran once" 1 !calls;
  let fresh = Gg_storage.Db.create () in
  load fresh;
  let db i = Node.db (Cluster.node c i) in
  for i = 0 to Cluster.n_nodes c - 1 do
    Alcotest.(check string)
      (Printf.sprintf "replica %d = a fresh load" i)
      (Gg_storage.Db.digest fresh)
      (Gg_storage.Db.digest (db i))
  done;
  let table i = Gg_storage.Db.get_table_exn (db i) "kv" in
  let key = Value.encode_key [| Value.Int 7 |] in
  let before = List.init 3 (fun i -> Gg_storage.Db.digest (db i)) in
  Gg_storage.Table.write (table 1)
    (Option.get (Gg_storage.Table.find (table 1) key))
    [| Value.Int 7; Value.Int 99; Value.Str "y" |];
  List.iteri
    (fun i d ->
      if i <> 1 then
        Alcotest.(check string)
          (Printf.sprintf "replica %d unchanged" i)
          d
          (Gg_storage.Db.digest (db i)))
    before;
  Alcotest.(check bool) "replica 1 changed" true
    (List.nth before 1 <> Gg_storage.Db.digest (db 1));
  (* The digests above are cached per table version, so also read the
     row itself: a shared data array would change under a stale cache. *)
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "replica %d row data untouched" i)
        true
        ((Option.get (Gg_storage.Table.find (table i) key)).data.(1)
        = Value.Int 0))
    [ 0; 2 ]

(* A table and its [Db.copy] share every row array, so a writer that
   changed an installed array in place would change both. Each step
   writes one row of one side through one of the writers: [Table.write],
   [Table.delete] then [Table.revive], an [Op_exec] [Add] merged at row
   level or, column-masked, at column level, a SQL UPDATE through
   [Executor], and a column-masked update merged at column level. The
   other side's fresh digest and every one of its row arrays, by
   identity and by contents, must stay as they were. *)
type iso_writer = Iso_write | Iso_delete_revive | Iso_add of bool | Iso_sql | Iso_column

let print_iso_writer = function
  | Iso_write -> "write"
  | Iso_delete_revive -> "delete+revive"
  | Iso_add col_mask -> if col_mask then "add (column)" else "add"
  | Iso_sql -> "sql update"
  | Iso_column -> "column merge"

let prop_copy_isolation =
  let open QCheck in
  let gen =
    Gen.(
      let* n_rows = int_range 1 20 in
      let* indexed = bool in
      let* write_copy = bool in
      let* steps =
        list_size (int_range 1 12)
          (pair
             (oneofl
                [ Iso_write; Iso_delete_revive; Iso_add false; Iso_add true;
                  Iso_sql; Iso_column ])
             (int_range 0 (n_rows - 1)))
      in
      return (n_rows, indexed, write_copy, steps))
  in
  let print (n_rows, indexed, write_copy, steps) =
    Printf.sprintf "%d rows%s, writing the %s: %s" n_rows
      (if indexed then " (indexed)" else "")
      (if write_copy then "copy" else "source")
      (String.concat "; "
         (List.map (fun (w, k) -> Printf.sprintf "%s %d" (print_iso_writer w) k) steps))
  in
  Test.make ~name:"writers never reach a copy's shared rows" ~count:200
    (make ~print gen)
    (fun (n_rows, indexed, write_copy, steps) ->
      let module Table = Gg_storage.Table in
      let source = Gg_storage.Db.create () in
      kv_load n_rows source;
      if indexed then
        Table.create_index (Gg_storage.Db.get_table_exn source "kv") ~name:"by_v"
          ~cols:[ "v" ];
      let copy = Gg_storage.Db.copy source in
      let written, other = if write_copy then (copy, source) else (source, copy) in
      let kv db = Gg_storage.Db.get_table_exn db "kv" in
      let rows = ref [] in
      Table.iter_sorted (kv other) (fun e ->
          rows := (e.Table.key_str, e.Table.data, Array.copy e.Table.data) :: !rows);
      let digest0 = Table.digest (kv other) in
      let merge ~epoch ?(level = Params.Row) records =
        let ws =
          Gg_crdt.Writeset.make
            ~meta:
              (Gg_crdt.Meta.make ~sen:epoch ~cen:epoch
                 ~csn:(Gg_storage.Csn.make ~ts:epoch ~node:0))
            ~records ()
        in
        let m = Epoch_merge.run ~level ~db:written ~jobs:1 ~ssi:false [ ws ] in
        if not (Epoch_merge.committed m ws) then
          Test.fail_reportf "epoch %d: the write set aborted" epoch
      in
      List.iteri
        (fun epoch (writer, k) ->
          let key = [| Value.Int k |] in
          let entry () = Option.get (Table.find (kv written) (Value.encode_key key)) in
          let fresh = [| Value.Int k; Value.Int (100 + epoch); Value.Str "w" |] in
          match writer with
          | Iso_write -> Table.write (kv written) (entry ()) fresh
          | Iso_delete_revive ->
            let e = entry () in
            Table.delete (kv written) e;
            Table.revive (kv written) e fresh
          | Iso_add col_mask -> (
            match
              Op_exec.exec ~col_mask written
                (Op.make [ Op.Add { table = "kv"; key; col = 1; delta = 5 } ])
            with
            | Ok r ->
              merge ~epoch ~level:(if col_mask then Params.Column else Params.Row)
                r.Op_exec.writes
            | Error m -> Test.fail_reportf "add: %s" m)
          | Iso_sql -> (
            let ctx = Gg_sql.Executor.Ctx.create written in
            match
              Gg_sql.Executor.exec_sql ctx "UPDATE kv SET v = v + 3 WHERE k = ?"
                ~params:[| Value.Int k |]
            with
            | Ok _ -> merge ~epoch (Gg_sql.Executor.Ctx.writeset_records ctx)
            | Error m -> Test.fail_reportf "update: %s" m)
          | Iso_column ->
            merge ~epoch ~level:Params.Column
              [
                Gg_crdt.Writeset.make_record ~cols:(Gg_crdt.Column.of_index 1)
                  ~table:"kv" ~key ~op:Gg_crdt.Writeset.Update ~data:fresh ();
              ])
        steps;
      (* a fresh digest: the cached one is keyed by a version that no
         write to the other side bumps *)
      Table.touch (kv other);
      if Table.digest (kv other) <> digest0 then
        Test.fail_reportf "the unwritten side's digest moved";
      List.iter
        (fun (key_str, data, contents) ->
          match Table.find (kv other) key_str with
          | Some e when e.Table.data == data && e.Table.data = contents -> ()
          | Some _ -> Test.fail_reportf "a row array of the unwritten side changed"
          | None -> Test.fail_reportf "a row of the unwritten side is gone")
        !rows;
      true)

(* --- basic commit flow --- *)

let test_single_write_commits () =
  let c = make_cluster () in
  let r = submit_wait c ~node:0 (write_txn 1 42) in
  run_ms c 500;
  (match !r with
  | Some (Txn.Committed _) -> ()
  | Some (Txn.Aborted { reason; _ }) ->
    Alcotest.failf "aborted: %s" (Txn.abort_reason_to_string reason)
  | None -> Alcotest.fail "no response");
  check_converged c;
  (* The write is visible on every replica. *)
  List.init 3 Fun.id
  |> List.iter (fun i ->
         let db = Node.db (Cluster.node c i) in
         let t = Gg_storage.Db.get_table_exn db "kv" in
         match Gg_storage.Table.find_live t (Value.encode_key [| Value.Int 1 |]) with
         | Some e -> Alcotest.(check bool) "value" true (Value.equal e.Gg_storage.Table.data.(1) (Value.Int 42))
         | None -> Alcotest.fail "row missing")

let test_write_latency_spans_wan () =
  (* A write cannot be confirmed before the remote epoch updates arrive:
     latency >= one-way WAN delay (~30 ms with 10 ms epochs). *)
  let c = make_cluster () in
  let r = submit_wait c ~node:0 (write_txn 1 1) in
  run_ms c 1_000;
  match !r with
  | Some (Txn.Committed { latency_us; _ }) ->
    Alcotest.(check bool)
      (Printf.sprintf "latency %d us >= 30 ms" latency_us)
      true (latency_us >= 30_000)
  | _ -> Alcotest.fail "expected commit"

let test_read_only_fast_path () =
  (* Read-only transactions return from the local snapshot without epoch
     coordination: latency well under the WAN delay. *)
  let c = make_cluster () in
  run_ms c 100;
  let r = submit_wait c ~node:0 (read_txn 5) in
  run_ms c 100;
  match !r with
  | Some (Txn.Committed { latency_us; _ }) ->
    Alcotest.(check bool)
      (Printf.sprintf "latency %d us < 10 ms" latency_us)
      true (latency_us < 10_000)
  | _ -> Alcotest.fail "expected commit"

let test_empty_epochs_progress () =
  (* With no transactions at all, empty EOF messages keep snapshots
     advancing (§4.2.3 case 1). *)
  let c = make_cluster () in
  run_ms c 500;
  List.iter
    (fun l -> Alcotest.(check bool) (Printf.sprintf "lsn %d advanced" l) true (l > 10))
    (Cluster.lsns c)

(* --- write-write conflicts (the heart of multi-master OCC) --- *)

let test_cross_node_conflict_single_winner () =
  let c = make_cluster () in
  run_ms c 50;
  (* Two nodes write the same key in the same epoch. *)
  let r0 = submit_wait c ~node:0 (write_txn 7 100) in
  let r1 = submit_wait c ~node:1 (write_txn 7 200) in
  run_ms c 1_000;
  let committed, aborted =
    List.fold_left
      (fun (c, a) r ->
        match !r with
        | Some (Txn.Committed _) -> (c + 1, a)
        | Some (Txn.Aborted { reason = Txn.Write_conflict; _ }) -> (c, a + 1)
        | Some (Txn.Aborted { reason; _ }) ->
          Alcotest.failf "unexpected reason %s" (Txn.abort_reason_to_string reason)
        | None -> Alcotest.fail "no response")
      (0, 0) [ r0; r1 ]
  in
  Alcotest.(check int) "one winner" 1 committed;
  Alcotest.(check int) "one loser" 1 aborted;
  check_converged c

let test_conflict_deterministic_value () =
  (* All replicas must agree on the winning value. *)
  let c = make_cluster () in
  run_ms c 50;
  ignore (submit_wait c ~node:0 (write_txn 9 111));
  ignore (submit_wait c ~node:1 (write_txn 9 222));
  ignore (submit_wait c ~node:2 (write_txn 9 333));
  run_ms c 1_000;
  check_converged c;
  let values =
    List.init 3 (fun i ->
        let db = Node.db (Cluster.node c i) in
        let t = Gg_storage.Db.get_table_exn db "kv" in
        let e = Option.get (Gg_storage.Table.find_live t (Value.encode_key [| Value.Int 9 |])) in
        e.Gg_storage.Table.data.(1))
  in
  match values with
  | [ a; b; c' ] ->
    Alcotest.(check bool) "same winner everywhere" true
      (Value.equal a b && Value.equal b c');
    Alcotest.(check bool) "winner is one of the writes" true
      (List.exists (Value.equal a) [ Value.Int 111; Value.Int 222; Value.Int 333 ])
  | _ -> Alcotest.fail "bad"

let test_disjoint_writes_all_commit () =
  let c = make_cluster () in
  run_ms c 50;
  let rs =
    List.init 3 (fun i -> submit_wait c ~node:i (write_txn (50 + i) i))
  in
  run_ms c 1_000;
  List.iter
    (fun r ->
      match !r with
      | Some (Txn.Committed _) -> ()
      | _ -> Alcotest.fail "disjoint writes must all commit")
    rs;
  check_converged c

(* --- sustained mixed workload: Theorem 3 at scale --- *)

let mixed_workload_clients ?(connections = 8) ?(n_rows = 200) c seed =
  List.init (Cluster.n_nodes c) (fun i ->
      let rng = Gg_util.Rng.create (seed + i) in
      let gen () =
        let k = Gg_util.Rng.int rng n_rows in
        match Gg_util.Rng.int rng 4 with
        | 0 -> read_txn k
        | 1 -> write_txn k (Gg_util.Rng.int rng 1000)
        | 2 -> add_txn k 1
        | _ ->
          Txn.Op_txn
            (Op.make ~label:"multi"
               [
                 Op.Read { table = "kv"; key = [| Value.Int k |] };
                 Op.Add { table = "kv"; key = [| Value.Int ((k + 1) mod n_rows) |]; col = 1; delta = 2 };
                 Op.Write
                   {
                     table = "kv";
                     key = [| Value.Int ((k + 2) mod n_rows) |];
                     data = [| Value.Int ((k + 2) mod n_rows); Value.Int k; Value.Str "m" |];
                   };
               ])
      in
      let cl = Client.create c ~home:i ~connections ~gen in
      Client.start cl;
      cl)

let test_sustained_workload_converges () =
  let c = make_cluster () in
  let clients = mixed_workload_clients c 1000 in
  run_ms c 3_000;
  List.iter Client.stop clients;
  check_converged c;
  let committed = List.fold_left (fun a cl -> a + Client.committed cl) 0 clients in
  Alcotest.(check bool)
    (Printf.sprintf "committed %d > 100" committed)
    true (committed > 100)

(* An answered request's timeout leaves the event queue with the answer.
   The queue then holds, per connection, one live timeout plus the
   request path's own events, and a constant number of node timers: it
   stays bounded by the connection count however many requests were
   answered. Before, every request answered within the last
   [client_retry_us] (2 s) left its timeout queued: ~1.5k events here. *)
let test_answered_timeouts_leave_queue () =
  let c = make_cluster () in
  let clients = mixed_workload_clients ~connections:8 c 4242 in
  let conns = 3 * 8 in
  run_ms c 3_000;
  let running = Gg_sim.Sim.pending (Cluster.sim c) in
  List.iter Client.stop clients;
  Cluster.quiesce c;
  let committed = List.fold_left (fun a cl -> a + Client.committed cl) 0 clients in
  let drained = Gg_sim.Sim.pending (Cluster.sim c) in
  Alcotest.(check bool) (Printf.sprintf "%d commits" committed) true
    (committed > 500);
  Alcotest.(check bool)
    (Printf.sprintf "%d pending while running <= %d" running (8 * conns))
    true
    (running <= 8 * conns);
  Alcotest.(check bool)
    (Printf.sprintf "%d pending after quiesce <= %d" drained (2 * conns))
    true
    (drained <= 2 * conns)

let test_convergence_under_duplication_and_reorder () =
  (* The CRDT merge must absorb duplicated and reordered batches. *)
  let c = make_cluster ~dup:0.2 ~reorder:0.2 () in
  let clients = mixed_workload_clients c 2000 in
  run_ms c 3_000;
  List.iter Client.stop clients;
  check_converged ~msg:"converged despite dup+reorder" c

let test_sequential_consistency_of_snapshots () =
  (* lsns advance together and digests agree after quiesce at several
     points in time. A stopped client stays stopped, so the second
     stretch runs fresh clients. *)
  let c = make_cluster () in
  let clients = mixed_workload_clients c 3000 in
  run_ms c 1_000;
  List.iter Client.stop clients;
  check_converged c;
  let clients = mixed_workload_clients c 3001 in
  run_ms c 1_000;
  List.iter Client.stop clients;
  check_converged c

(* --- inserts and deletes --- *)

let test_concurrent_insert_conflict () =
  let c = make_cluster () in
  run_ms c 50;
  let ins node v =
    Txn.Op_txn
      (Op.make ~label:"ins"
         [
           Op.Insert
             {
               table = "kv";
               key = [| Value.Int 9999 |];
               data = [| Value.Int 9999; Value.Int v; Value.Str "i" |];
             };
         ])
    |> fun req -> submit_wait c ~node req
  in
  let r0 = ins 0 100 and r1 = ins 1 200 in
  run_ms c 1_000;
  let committed =
    List.length
      (List.filter (fun r -> match !r with Some (Txn.Committed _) -> true | _ -> false) [ r0; r1 ])
  in
  Alcotest.(check int) "exactly one insert wins" 1 committed;
  check_converged c

let test_delete_then_update_aborts () =
  let c = make_cluster () in
  run_ms c 50;
  let del =
    submit_wait c ~node:0
      (Txn.Op_txn (Op.make ~label:"del" [ Op.Delete { table = "kv"; key = [| Value.Int 3 |] } ]))
  in
  run_ms c 1_000;
  (match !del with
  | Some (Txn.Committed _) -> ()
  | _ -> Alcotest.fail "delete should commit");
  (* Later update of the deleted row aborts with Row_deleted (merge rule
     line 3-4) or fails execution. *)
  let up = submit_wait c ~node:1 (add_txn 3 1) in
  run_ms c 1_000;
  (match !up with
  | Some (Txn.Aborted _) -> ()
  | Some (Txn.Committed _) -> Alcotest.fail "update of deleted row must abort"
  | None -> Alcotest.fail "no response");
  check_converged c

let test_insert_then_visible_everywhere () =
  let c = make_cluster () in
  run_ms c 50;
  let r =
    submit_wait c ~node:2
      (Txn.Op_txn
         (Op.make ~label:"ins"
            [
              Op.Insert
                {
                  table = "kv";
                  key = [| Value.Int 5000 |];
                  data = [| Value.Int 5000; Value.Int 77; Value.Str "n" |];
                };
            ]))
  in
  run_ms c 1_000;
  (match !r with Some (Txn.Committed _) -> () | _ -> Alcotest.fail "insert commit");
  check_converged c;
  List.init 3 Fun.id
  |> List.iter (fun i ->
         let db = Node.db (Cluster.node c i) in
         let t = Gg_storage.Db.get_table_exn db "kv" in
         Alcotest.(check bool) "visible" true
           (Gg_storage.Table.mem_live t (Value.encode_key [| Value.Int 5000 |])))

(* --- isolation levels --- *)

let long_add k delta delay_us =
  Txn.Op_txn
    (Op.make ~label:"long" ~exec_extra_us:delay_us
       [ Op.Add { table = "kv"; key = [| Value.Int k |]; col = 1; delta } ])

let test_rr_aborts_on_changed_read () =
  let params = Params.with_isolation Params.default Params.RR in
  let c = make_cluster ~params () in
  run_ms c 50;
  (* A long transaction reads key 11 then sleeps 80 ms; meanwhile another
     node updates key 11 — RR read validation must abort the long one. *)
  let lr = submit_wait c ~node:0 (long_add 11 1 80_000) in
  run_ms c 5;
  ignore (submit_wait c ~node:1 (write_txn 11 500));
  run_ms c 2_000;
  (match !lr with
  | Some (Txn.Aborted { reason = Txn.Read_validation; _ }) -> ()
  | Some (Txn.Aborted { reason; _ }) ->
    Alcotest.failf "wrong reason %s" (Txn.abort_reason_to_string reason)
  | Some (Txn.Committed _) -> Alcotest.fail "RR must abort stale read"
  | None -> Alcotest.fail "no response");
  check_converged c

let test_rc_allows_changed_read () =
  let c = make_cluster () (* RC default *) in
  run_ms c 50;
  let lr = submit_wait c ~node:0 (long_add 11 1 80_000) in
  run_ms c 5;
  ignore (submit_wait c ~node:1 (write_txn 11 500));
  run_ms c 2_000;
  (match !lr with
  | Some (Txn.Committed _) | Some (Txn.Aborted { reason = Txn.Write_conflict; _ }) -> ()
  | Some (Txn.Aborted { reason; _ }) ->
    Alcotest.failf "RC should not read-abort (%s)" (Txn.abort_reason_to_string reason)
  | None -> Alcotest.fail "no response");
  check_converged c

let test_si_aborts_on_new_snapshot_of_read_row () =
  let params = Params.with_isolation Params.default Params.SI in
  let c = make_cluster ~params () in
  run_ms c 50;
  let lr = submit_wait c ~node:0 (long_add 13 1 100_000) in
  run_ms c 5;
  ignore (submit_wait c ~node:1 (write_txn 13 7));
  run_ms c 2_000;
  (match !lr with
  | Some (Txn.Aborted { reason = Txn.Read_validation; _ }) -> ()
  | Some (Txn.Committed _) -> Alcotest.fail "SI must abort on refreshed snapshot"
  | Some (Txn.Aborted { reason; _ }) ->
    Alcotest.failf "wrong reason %s" (Txn.abort_reason_to_string reason)
  | None -> Alcotest.fail "no response");
  check_converged c

(* The same stale read through the SQL executor's read set: a Sql_txn
   reads key 11 first, runs long (every statement pays its own parse and
   execution slice), then updates the key; meanwhile another node
   overwrites it. *)
let long_sql_rmw k =
  let read key = ("SELECT v FROM kv WHERE k = ?", [| Value.Int key |]) in
  Txn.Sql_txn
    {
      label = "long-sql";
      stmts =
        (read k :: List.init 150 (fun _ -> read 1))
        @ [ ("UPDATE kv SET v = v + 1 WHERE k = ?", [| Value.Int k |]) ];
    }

let sql_stale_read iso =
  let params = Params.with_isolation Params.default iso in
  let c = make_cluster ~params () in
  run_ms c 50;
  let lr = submit_wait c ~node:0 (long_sql_rmw 11) in
  run_ms c 5;
  ignore (submit_wait c ~node:1 (write_txn 11 500));
  run_ms c 2_000;
  check_converged c;
  !lr

let test_sql_stale_read_aborts iso () =
  match sql_stale_read iso with
  | Some (Txn.Aborted { reason = Txn.Read_validation; _ }) -> ()
  | Some (Txn.Aborted { reason; _ }) ->
    Alcotest.failf "wrong reason %s" (Txn.abort_reason_to_string reason)
  | Some (Txn.Committed _) -> Alcotest.fail "stale SQL read must abort"
  | None -> Alcotest.fail "no response"

let test_sql_rc_allows_changed_read () =
  match sql_stale_read Params.RC with
  | Some (Txn.Committed _) | Some (Txn.Aborted { reason = Txn.Write_conflict; _ }) -> ()
  | Some (Txn.Aborted { reason; _ }) ->
    Alcotest.failf "RC should not read-abort (%s)" (Txn.abort_reason_to_string reason)
  | None -> Alcotest.fail "no response"

let test_ssi_aborts_pivot () =
  (* SSI extension: T reads x and writes y; U reads y and writes x, in
     the same epoch from different nodes. Both have an incoming and an
     outgoing rw-antidependency — at least one must abort with
     Ssi_conflict (plain SI would commit both). *)
  let params = Params.with_isolation Params.default Params.SSI in
  let c = make_cluster ~params () in
  run_ms c 50;
  let t_req =
    Txn.Op_txn
      (Op.make ~label:"T"
         [
           Op.Read { table = "kv"; key = [| Value.Int 1 |] };
           Op.Write { table = "kv"; key = [| Value.Int 2 |]; data = [| Value.Int 2; Value.Int 10; Value.Str "T" |] };
         ])
  in
  let u_req =
    Txn.Op_txn
      (Op.make ~label:"U"
         [
           Op.Read { table = "kv"; key = [| Value.Int 2 |] };
           Op.Write { table = "kv"; key = [| Value.Int 1 |]; data = [| Value.Int 1; Value.Int 20; Value.Str "U" |] };
         ])
  in
  let rt = submit_wait c ~node:0 t_req in
  let ru = submit_wait c ~node:1 u_req in
  run_ms c 1_000;
  let ssi_aborts =
    List.length
      (List.filter
         (fun r ->
           match !r with
           | Some (Txn.Aborted { reason = Txn.Ssi_conflict; _ }) -> true
           | _ -> false)
         [ rt; ru ])
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d pivot abort(s)" ssi_aborts)
    true (ssi_aborts >= 1);
  check_converged c

let test_ssi_disjoint_txns_commit () =
  let params = Params.with_isolation Params.default Params.SSI in
  let c = make_cluster ~params () in
  run_ms c 50;
  let r0 = submit_wait c ~node:0 (write_txn 30 1) in
  let r1 = submit_wait c ~node:1 (write_txn 31 2) in
  run_ms c 1_000;
  List.iter
    (fun r ->
      match !r with
      | Some (Txn.Committed _) -> ()
      | _ -> Alcotest.fail "disjoint txns commit under SSI")
    [ r0; r1 ];
  check_converged c

let test_ssi_ships_read_keys () =
  (* Read keys inflate the WAN traffic — the cost §4.3 cites. *)
  let run iso =
    let params = Params.with_isolation Params.default iso in
    let c = make_cluster ~params () in
    let clients = mixed_workload_clients ~connections:6 c 12_000 in
    run_ms c 2_000;
    List.iter Client.stop clients;
    Gg_sim.Net.wan_bytes (Cluster.net c)
  in
  let si = run Params.SI and ssi = run Params.SSI in
  Alcotest.(check bool)
    (Printf.sprintf "SSI wan %d > SI wan %d" ssi si)
    true (ssi > si)

let test_isolation_abort_rates_ordered () =
  (* Higher isolation => more aborts on a contended workload (Fig 9). *)
  let run iso =
    let params = Params.with_isolation Params.default iso in
    let c = make_cluster ~params ~n_rows:20 () in
    let clients =
      List.init 3 (fun i ->
          let rng = Gg_util.Rng.create (7_000 + i) in
          let gen () =
            let k = Gg_util.Rng.int rng 20 in
            long_add k 1 (5_000 + Gg_util.Rng.int rng 10_000)
          in
          let cl = Client.create c ~home:i ~connections:8 ~gen in
          Client.start cl;
          cl)
    in
    run_ms c 3_000;
    List.iter Client.stop clients;
    Cluster.quiesce c;
    let committed = List.fold_left (fun a cl -> a + Client.committed cl) 0 clients in
    let aborted = List.fold_left (fun a cl -> a + Client.aborted cl) 0 clients in
    float_of_int aborted /. float_of_int (max 1 (committed + aborted))
  in
  let rc = run Params.RC and rr = run Params.RR in
  Alcotest.(check bool)
    (Printf.sprintf "abort rate RC %.3f <= RR %.3f" rc rr)
    true (rc <= rr +. 0.01)

(* --- variants --- *)

let test_geog_s_commits_and_converges () =
  let params = Params.with_variant Params.default Params.Sync_exec in
  let c = make_cluster ~params () in
  let clients = mixed_workload_clients ~connections:4 c 4000 in
  run_ms c 3_000;
  List.iter Client.stop clients;
  check_converged c;
  let committed = List.fold_left (fun a cl -> a + Client.committed cl) 0 clients in
  Alcotest.(check bool) (Printf.sprintf "GeoG-S committed %d > 0" committed) true (committed > 0)

let test_geog_s_slower_than_geogauss () =
  let run variant =
    let params = Params.with_variant Params.default variant in
    let c = make_cluster ~params () in
    let clients = mixed_workload_clients ~connections:8 c 5000 in
    run_ms c 3_000;
    List.iter Client.stop clients;
    List.fold_left (fun a cl -> a + Client.committed cl) 0 clients
  in
  let opt = run Params.Optimistic and sync = run Params.Sync_exec in
  Alcotest.(check bool)
    (Printf.sprintf "GeoGauss %d > GeoG-S %d" opt sync)
    true
    (opt > sync)

let test_geog_a_low_latency_and_convergence () =
  let params = Params.with_variant Params.default Params.Async_merge in
  let c = make_cluster ~params () in
  run_ms c 50;
  let r = submit_wait c ~node:0 (write_txn 2 5) in
  run_ms c 500;
  (match !r with
  | Some (Txn.Committed { latency_us; _ }) ->
    (* No epoch wait: well under the WAN one-way delay. *)
    Alcotest.(check bool)
      (Printf.sprintf "GeoG-A latency %d < 20 ms" latency_us)
      true (latency_us < 20_000)
  | _ -> Alcotest.fail "GeoG-A commit");
  (* Eventual convergence without epochs. *)
  let clients = mixed_workload_clients ~connections:4 c 6000 in
  run_ms c 2_000;
  List.iter Client.stop clients;
  Cluster.run_for_ms c 1_000;
  (match Cluster.digests c with
  | d :: rest -> List.iter (fun d' -> Alcotest.(check string) "eventual convergence" d d') rest
  | [] -> Alcotest.fail "no nodes");
  (* No epoch machinery runs: no EOF silence removes a member, and no
     node opens a per-epoch record. *)
  Alcotest.(check (list int)) "every node stays a member"
    (List.init (Cluster.n_nodes c) Fun.id)
    (Cluster.members c);
  for i = 0 to Cluster.n_nodes c - 1 do
    Alcotest.(check (list int)) "no epoch records" []
      (Node.held_epochs (Cluster.node c i))
  done

let test_geog_a_never_aborts () =
  let params = Params.with_variant Params.default Params.Async_merge in
  let c = make_cluster ~params ~n_rows:10 () in
  let clients = mixed_workload_clients ~connections:8 ~n_rows:10 c 6500 in
  run_ms c 2_000;
  List.iter Client.stop clients;
  let aborted = List.fold_left (fun a cl -> a + Client.aborted cl) 0 clients in
  Alcotest.(check int) "no aborts under eventual consistency" 0 aborted

(* --- fault tolerance modes --- *)

let test_ft_raft_converges () =
  let params = Params.with_ft Params.default Params.Ft_raft in
  let c = make_cluster ~params () in
  let clients = mixed_workload_clients ~connections:4 c 7000 in
  run_ms c 3_000;
  List.iter Client.stop clients;
  check_converged c;
  let committed = List.fold_left (fun a cl -> a + Client.committed cl) 0 clients in
  Alcotest.(check bool) "raft-ft commits" true (committed > 0)

let test_ft_latency_ordering () =
  (* LB < RB <= Raft in mean commit latency (Fig 12). *)
  let run ft =
    let params = Params.with_ft Params.default ft in
    let c = make_cluster ~params () in
    let clients = mixed_workload_clients ~connections:4 c 8000 in
    run_ms c 3_000;
    List.iter Client.stop clients;
    let h =
      List.fold_left
        (fun acc cl -> Gg_util.Stats.Hist.merge acc (Client.latency cl))
        (Gg_util.Stats.Hist.create ()) clients
    in
    Gg_util.Stats.Hist.mean h
  in
  let lb = run Params.Ft_local_backup in
  let rb = run Params.Ft_remote_backup in
  let raft = run Params.Ft_raft in
  Alcotest.(check bool)
    (Printf.sprintf "LB %.0f <= RB %.0f" lb rb)
    true (lb <= rb +. 1_000.0);
  Alcotest.(check bool)
    (Printf.sprintf "RB %.0f <= Raft %.0f" rb raft)
    true (rb <= raft +. 2_000.0)

let test_ft_gate_tally () =
  let gate ft =
    Ft_gate.create (Params.with_ft Params.default ft)
      ~topology:(Topology.china3 ()) ~node:0
  in
  let g = gate Params.Ft_raft in
  let ack ~cen from = Ft_gate.ack g ~cen ~from ~members:5 in
  Alcotest.(check bool) "unsealed epoch: no announce" false (ack ~cen:1 1);
  Ft_gate.sealed g ~cen:1 ~members:5;
  Alcotest.(check bool) "one ack of 5 is no majority" false (ack ~cen:1 1);
  Alcotest.(check bool) "a repeated acker counts once" false (ack ~cen:1 1);
  Alcotest.(check bool) "second distinct ack announces" true (ack ~cen:1 2);
  Alcotest.(check bool) "later acks never announce again" false (ack ~cen:1 3);
  Ft_gate.sealed g ~cen:2 ~members:1;
  Alcotest.(check bool) "a lone member opens no tally" false
    (Ft_gate.ack g ~cen:2 ~from:1 ~members:1);
  Ft_gate.sealed g ~cen:2 ~members:3;
  Ft_gate.reset g;
  Alcotest.(check bool) "a crash closes open tallies" false
    (Ft_gate.ack g ~cen:2 ~from:1 ~members:3);
  let lb = gate Params.Ft_local_backup in
  Ft_gate.sealed lb ~cen:1 ~members:3;
  Alcotest.(check bool) "no tally outside Raft-FT" false
    (Ft_gate.ack lb ~cen:1 ~from:1 ~members:3);
  Alcotest.(check bool) "only Raft-FT gates merging" false
    (Ft_gate.awaits_commit lb || Ft_gate.acks_eof lb);
  Alcotest.(check int) "local backup: one same-region round trip"
    (2 * Topology.latency (Topology.china3 ()) 0 0)
    (Ft_gate.notify_delay lb);
  Alcotest.(check int) "raft: no notify delay" 0 (Ft_gate.notify_delay g)

let test_ft_raft_one_commit_per_batch () =
  (* The origin announces each sealed batch once, at its first majority:
     with no duplication or loss in the network, every receiver logs at
     most one ft.commit per (origin, epoch). *)
  let params = Params.with_ft Params.default Params.Ft_raft in
  let c = make_cluster ~params () in
  let obs = Cluster.obs c in
  Gg_obs.Obs.set_tracing obs true;
  let clients = mixed_workload_clients ~connections:4 c 7100 in
  run_ms c 1_000;
  List.iter Client.stop clients;
  Alcotest.(check int) "trace ring kept every event" 0
    (Gg_obs.Obs.dropped_events obs);
  let seen = Hashtbl.create 1024 in
  List.iter
    (fun (ev : Gg_obs.Obs.Trace.event) ->
      if ev.name = "ft.commit" then begin
        let key = (ev.node, ev.detail, ev.epoch) in
        if Hashtbl.mem seen key then
          Alcotest.failf "node %d got a second ft.commit %s for epoch %d"
            ev.node ev.detail ev.epoch;
        Hashtbl.replace seen key ()
      end)
    (Gg_obs.Obs.events obs);
  Alcotest.(check bool) "commits were announced" true (Hashtbl.length seen > 0)

(* No node holds a per-epoch record for an epoch its snapshot already
   covers: the merge drops the record and late messages create none. *)
let check_no_merged_records c label =
  for i = 0 to Cluster.n_nodes c - 1 do
    let n = Cluster.node c i in
    let stale = List.filter (fun e -> e <= Node.lsn n) (Node.held_epochs n) in
    Alcotest.(check (list int))
      (Printf.sprintf "%s: node %d records at or below lsn %d" label i
         (Node.lsn n))
      [] stale
  done

let test_epoch_records_bounded () =
  List.iter
    (fun ft ->
      let params = Params.with_ft Params.default ft in
      let c = make_cluster ~params () in
      let clients = mixed_workload_clients ~connections:4 c 7200 in
      run_ms c 3_000;
      List.iter Client.stop clients;
      check_no_merged_records c (Params.ft_to_string ft))
    Params.[ Ft_none; Ft_local_backup; Ft_remote_backup; Ft_raft ];
  let c = make_cluster () in
  let clients = mixed_workload_clients ~connections:4 c 7300 in
  run_ms c 1_000;
  Cluster.crash c 2;
  run_ms c 2_000;
  Cluster.recover c 2;
  run_ms c 3_000;
  List.iter Client.stop clients;
  Alcotest.(check (list int)) "recovered node re-added" [ 0; 1; 2 ]
    (Cluster.members c);
  check_no_merged_records c "crash/recover"

(* --- the per-epoch store --- *)

(* A write set of node [node] with csn timestamp [ts]: a fresh value
   each time, as a re-sent or re-fetched frame decodes to one. *)
let ws_of ~node ts =
  Gg_crdt.Writeset.make
    ~meta:(Gg_crdt.Meta.make ~sen:0 ~cen:0 ~csn:(Gg_storage.Csn.make ~ts ~node))
    ~records:[] ()

let csns wss =
  List.map
    (fun (ws : Gg_crdt.Writeset.t) ->
      let c = ws.meta.Gg_crdt.Meta.csn in
      (c.Gg_storage.Csn.node, c.Gg_storage.Csn.ts))
    wss

let store ?(awaits_commit = false) () = Epochs.create ~peers:4 ~awaits_commit

let test_epochs_dedup_on_arrival () =
  let s = store () in
  let batch () = [ ws_of ~node:1 1; ws_of ~node:1 2 ] in
  Epochs.add s ~cen:5 ~peer:1 (batch ());
  Epochs.add s ~cen:5 ~peer:1 (batch ());
  Alcotest.(check (list (pair int int))) "a duplicated batch leaves one copy"
    [ (1, 1); (1, 2) ]
    (csns (Epochs.collect s ~cen:5 ~self:0 [ 0; 1 ]));
  (* Two mini-batches arrived, a third was lost; the stall repair then
     re-fetches the whole sealed batch from the backup. *)
  Epochs.add s ~cen:6 ~peer:1 [ ws_of ~node:1 1 ];
  Epochs.add s ~cen:6 ~peer:1 [ ws_of ~node:1 3 ];
  Epochs.add s ~cen:6 ~peer:1
    [ ws_of ~node:1 1; ws_of ~node:1 2; ws_of ~node:1 3 ];
  Epochs.eof s ~cen:6 ~peer:1 ~count:3;
  Alcotest.(check int) "a re-fetched batch adds only what was missing" 3
    (Epochs.received s ~cen:6 ~peer:1);
  Alcotest.(check (list (pair int int))) "in arrival order"
    [ (1, 1); (1, 3); (1, 2) ]
    (csns (Epochs.collect s ~cen:6 ~self:0 [ 0; 1 ]))

let test_epochs_completeness () =
  let s = store () in
  let complete () = Epochs.complete s ~cen:3 ~peer:2 in
  Epochs.add s ~cen:3 ~peer:2 [ ws_of ~node:2 1 ];
  Alcotest.(check bool) "no EOF: incomplete" false (complete ());
  Epochs.eof s ~cen:3 ~peer:2 ~count:2;
  Alcotest.(check bool) "one of the two announced: incomplete" false (complete ());
  Alcotest.(check (list int)) "incomplete: the members but self" [ 1; 2 ]
    (Epochs.incomplete s ~cen:3 ~self:0 [ 0; 1; 2 ]);
  Epochs.add s ~cen:3 ~peer:2 [ ws_of ~node:2 1 ];
  Alcotest.(check bool) "a duplicate does not count" false (complete ());
  Epochs.add s ~cen:3 ~peer:2 [ ws_of ~node:2 2 ];
  Alcotest.(check bool) "EOF and every announced write set" true (complete ());
  let raft = store ~awaits_commit:true () in
  let complete () = Epochs.complete raft ~cen:3 ~peer:2 in
  Epochs.eof raft ~cen:3 ~peer:2 ~count:0;
  Alcotest.(check bool) "Raft-FT: no commit, incomplete" false (complete ());
  Epochs.commit raft ~cen:3 ~peer:2;
  Alcotest.(check bool) "Raft-FT: committed, complete" true (complete ());
  Epochs.commit raft ~cen:4 ~peer:2;
  Alcotest.(check bool) "Raft-FT: a commit alone is not enough" false
    (Epochs.complete raft ~cen:4 ~peer:2)

let test_epochs_collect_order () =
  let s = store () in
  (Epochs.get s 7).Epochs.sealed <- [ ws_of ~node:1 5; ws_of ~node:1 6 ];
  Epochs.add s ~cen:7 ~peer:3 [ ws_of ~node:3 1 ];
  Epochs.add s ~cen:7 ~peer:2 [ ws_of ~node:2 9 ];
  Epochs.add s ~cen:7 ~peer:0 [ ws_of ~node:0 2; ws_of ~node:0 1 ];
  Epochs.add s ~cen:7 ~peer:2 [ ws_of ~node:2 3 ];
  Alcotest.(check (list (pair int int)))
    "local sealed, then each member in member order, each in arrival order"
    [ (1, 5); (1, 6); (0, 2); (0, 1); (2, 9); (2, 3) ]
    (csns (Epochs.collect s ~cen:7 ~self:1 [ 0; 1; 2 ]))

let test_epochs_past_lsn () =
  let s = store () in
  List.iter (fun cen -> ignore (Epochs.get s cen)) [ 3; 4; 5; 6; 7 ];
  Epochs.eof s ~cen:4 ~peer:1 ~count:0;
  Epochs.eof s ~cen:6 ~peer:1 ~count:0;
  Epochs.eof s ~cen:5 ~peer:2 ~count:0;
  Alcotest.(check (list int)) "missing EOFs in (lsn, upto]" [ 5; 7; 8 ]
    (Epochs.missing_eof s ~peer:1 ~lsn:3 ~upto:8);
  (Epochs.get s 6).Epochs.waiting <-
    [
      Txn.create ~id:0 ~node:0
        ~request:(Txn.Sql_txn { label = ""; stmts = [] })
        ~submit_time:0 ~callback:ignore;
    ];
  Epochs.drop_through s ~lsn:5;
  Alcotest.(check (list int)) "drop-through keeps the epochs past lsn" [ 6; 7 ]
    (Epochs.held s);
  Alcotest.(check int) "their waiting transactions stay" 1 (Epochs.waiting s);
  Alcotest.(check (list int)) "a dropped EOF is missing no more" [ 7 ]
    (Epochs.missing_eof s ~peer:1 ~lsn:5 ~upto:7);
  Epochs.remove s 6;
  Alcotest.(check (list int)) "remove drops one epoch" [ 7 ] (Epochs.held s);
  Epochs.reset s;
  Alcotest.(check (list int)) "reset drops every epoch" [] (Epochs.held s)

(* Arrivals of peers 1-3 (members 0-2, self 0) in any order, duplicated
   and re-fetched at will: collect holds each member's distinct write
   sets once, in first-arrival order, after the local sealed ones. *)
let prop_epochs_collect_distinct =
  let open QCheck in
  let arrival =
    Gen.(pair (int_range 1 3) (list_size (int_range 0 4) (int_range 1 5)))
  in
  let print = Print.(list (pair int (list int))) in
  Test.make ~name:"collect: one write set per csn" ~count:500
    (make ~print Gen.(list_size (int_range 0 30) arrival))
    (fun arrivals ->
      let s = store () in
      (Epochs.get s 1).Epochs.sealed <- [ ws_of ~node:0 1; ws_of ~node:0 2 ];
      List.iter
        (fun (peer, tss) ->
          Epochs.add s ~cen:1 ~peer (List.map (ws_of ~node:peer) tss))
        arrivals;
      let got = csns (Epochs.collect s ~cen:1 ~self:0 [ 0; 1; 2 ]) in
      let first_arrivals peer =
        List.fold_left
          (fun acc (p, tss) ->
            if p <> peer then acc
            else
              List.fold_left
                (fun acc ts -> if List.mem ts acc then acc else acc @ [ ts ])
                acc tss)
          [] arrivals
        |> List.map (fun ts -> (peer, ts))
      in
      let want = [ (0, 1); (0, 2) ] @ first_arrivals 1 @ first_arrivals 2 in
      List.length (List.sort_uniq compare got) = List.length got
      && got = want)

(* --- failures --- *)

let test_node_crash_blocks_then_view_change_unblocks () =
  let c = make_cluster () in
  let clients = mixed_workload_clients ~connections:4 c 9000 in
  run_ms c 1_000;
  Cluster.crash c 2;
  (* Within ~500 ms + raft commit the survivors drop node 2 and resume. *)
  run_ms c 3_000;
  let lsn0 = Node.lsn (Cluster.node c 0) in
  Alcotest.(check bool)
    (Printf.sprintf "survivors advanced past crash (lsn %d > 150)" lsn0)
    true (lsn0 > 150);
  Alcotest.(check (list int)) "view excludes crashed node" [ 0; 1 ] (Cluster.members c);
  List.iter Client.stop clients;
  Cluster.quiesce c;
  let d0 = Gg_storage.Db.digest (Node.db (Cluster.node c 0)) in
  let d1 = Gg_storage.Db.digest (Node.db (Cluster.node c 1)) in
  Alcotest.(check string) "survivors consistent" d0 d1

let test_client_rerouted_after_crash () =
  let c = make_cluster () in
  run_ms c 200;
  Cluster.crash c 1;
  run_ms c 1_500;
  let target = Cluster.route c ~preferred:1 in
  Alcotest.(check bool) "routed away from crashed node" true (target <> 1)

let numbered_writes () =
  let seq = ref 0 in
  fun () ->
    incr seq;
    write_txn (!seq mod 200) !seq

(* A crashed node never answers. One connection homed on node 0 has a
   write in flight there when node 0 crashes: that request times out
   [client_retry_us] after it was submitted, and not before, and the
   connection then re-routes to a live node. *)
let test_closed_client_timeout_reroutes () =
  let c = make_cluster () in
  let cl = Client.create c ~home:0 ~connections:1 ~gen:(numbered_writes ()) in
  Client.start cl;
  run_ms c 1_000;
  Cluster.crash c 0;
  let retry_ms = (Cluster.params c).Params.client_retry_us / 1_000 in
  let committed = Client.committed cl in
  Alcotest.(check int) "no timeout at the crash" 0 (Client.timeouts cl);
  run_ms c (retry_ms / 2);
  Alcotest.(check int) "none within half the retry window" 0
    (Client.timeouts cl);
  Alcotest.(check int) "the stuck connection commits nothing" committed
    (Client.committed cl);
  run_ms c ((retry_ms / 2) + 1);
  Alcotest.(check int) "one timeout by crash + client_retry_us" 1
    (Client.timeouts cl);
  run_ms c 1_000;
  Client.stop cl;
  run_ms c 1_000;
  Alcotest.(check bool) "commits again after the timeout" true
    (Client.committed cl > committed);
  Alcotest.(check int) "crashed node committed nothing" committed
    (Metrics.committed (Cluster.metrics c 0));
  Alcotest.(check int) "every later commit ran on a live node"
    (Client.committed cl - committed)
    (Metrics.committed (Cluster.metrics c 1)
    + Metrics.committed (Cluster.metrics c 2))

let test_node_recovery_rejoins () =
  let c = make_cluster () in
  let clients = mixed_workload_clients ~connections:4 c 9500 in
  run_ms c 1_000;
  Cluster.crash c 2;
  run_ms c 2_000;
  Alcotest.(check (list int)) "removed" [ 0; 1 ] (Cluster.members c);
  Cluster.recover c 2;
  run_ms c 3_000;
  Alcotest.(check (list int)) "re-added" [ 0; 1; 2 ] (Cluster.members c);
  run_ms c 2_000;
  List.iter Client.stop clients;
  check_converged ~msg:"recovered node caught up" c

(* --- write-set backup store crash paths (§5.2) --- *)

let sealed_batch ~node ~cen =
  Gg_crdt.Writeset.Batch.make ~node ~cen ~txns:[] ~eof:true ()

let test_backup_put_requires_eof () =
  let b = Backup.create ~n:3 in
  Alcotest.(check bool) "mini-batch rejected" true
    (try
       Backup.put b (Gg_crdt.Writeset.Batch.make ~node:0 ~cen:1 ~txns:[] ~eof:false ());
       false
     with Invalid_argument _ -> true);
  Alcotest.(check int) "nothing stored" 0 (Backup.count b)

let test_backup_duplicate_put_idempotent () =
  (* Retransmitted sealed batches (the network duplicates, the repair
     path re-pushes) must not multiply backup state. *)
  let b = Backup.create ~n:3 in
  let batch = sealed_batch ~node:1 ~cen:4 in
  Backup.put b batch;
  Backup.put b batch;
  Backup.put b (sealed_batch ~node:1 ~cen:4);
  Alcotest.(check int) "one copy" 1 (Backup.count b);
  Alcotest.(check int) "last_sealed" 4 (Backup.last_sealed b ~node:1);
  (* Out-of-order arrival of an older epoch never regresses the seal
     high-water mark survivors read during view change. *)
  Backup.put b (sealed_batch ~node:1 ~cen:2);
  Alcotest.(check int) "monotone last_sealed" 4 (Backup.last_sealed b ~node:1);
  Alcotest.(check bool) "old epoch fetchable" true
    (Backup.get b ~node:1 ~cen:2 <> None);
  Alcotest.(check int) "other node untouched" (-1) (Backup.last_sealed b ~node:0)

let test_backup_after_mid_epoch_crash () =
  (* Crash a node mid-run: its backup must expose a consistent prefix —
     last_sealed is the true high-water mark and every epoch up to it is
     fetchable, which is what survivors rely on to finish merging before
     the view change drops the node. *)
  let c = make_cluster () in
  let clients = mixed_workload_clients ~connections:4 c 11_000 in
  run_ms c 1_000;
  Cluster.crash c 2;
  let b = Cluster.backup c in
  let last = Backup.last_sealed b ~node:2 in
  Alcotest.(check bool)
    (Printf.sprintf "crashed node sealed epochs (last %d)" last)
    true (last > 10);
  for e = 1 to last do
    Alcotest.(check bool)
      (Printf.sprintf "epoch %d fetchable" e)
      true
      (Backup.get b ~node:2 ~cen:e <> None)
  done;
  (* Survivors fetch what they miss, merge through [last], and move on. *)
  run_ms c 3_000;
  List.iter Client.stop clients;
  Alcotest.(check (list int)) "view excludes crashed node" [ 0; 1 ] (Cluster.members c);
  Alcotest.(check bool) "survivors merged past the seal mark" true
    (Node.lsn (Cluster.node c 0) > last);
  Cluster.quiesce c;
  let d0 = Gg_storage.Db.digest (Node.db (Cluster.node c 0)) in
  let d1 = Gg_storage.Db.digest (Node.db (Cluster.node c 1)) in
  Alcotest.(check string) "survivors consistent" d0 d1

(* --- per-node metrics bookkeeping --- *)

let ph ~parse ~exec ~wait ~merge ~log =
  { Txn.parse_us = parse; exec_us = exec; wait_us = wait; merge_us = merge;
    log_us = log }

let fresh_metrics () = Metrics.create ~obs:(Gg_obs.Obs.create ()) ~id:0

let test_metrics_phase_means () =
  let m = fresh_metrics () in
  Metrics.record_phases m (ph ~parse:100 ~exec:200 ~wait:300 ~merge:400 ~log:500);
  Metrics.record_phases m (ph ~parse:300 ~exec:400 ~wait:500 ~merge:600 ~log:700);
  let p, e, w, g, l = Metrics.phase_means_us m in
  let chk name expect got = Alcotest.(check (float 1e-6)) name expect got in
  chk "parse" 200.0 p;
  chk "exec" 300.0 e;
  chk "wait" 400.0 w;
  chk "merge" 500.0 g;
  chk "log" 600.0 l

let test_metrics_epoch_cells_sorted () =
  let m = fresh_metrics () in
  Metrics.record_epoch_commit m ~cen:7 ~latency_us:10;
  Metrics.record_epoch_commit m ~cen:3 ~latency_us:20;
  Metrics.record_epoch_commit m ~cen:7 ~latency_us:30;
  Metrics.record_epoch_commit m ~cen:5 ~latency_us:40;
  let cells = Metrics.epoch_cells m in
  Alcotest.(check (list int)) "ascending epochs" [ 3; 5; 7 ] (List.map fst cells);
  let c7 = List.assoc 7 cells in
  Alcotest.(check int) "per-epoch count accumulates" 2 c7.Metrics.committed;
  Alcotest.(check (float 1e-6))
    "per-epoch latency mean" 20.0
    (Gg_util.Stats.Acc.mean c7.Metrics.latency)

let test_metrics_abort_reason_pooling () =
  let m = fresh_metrics () in
  let ab reason =
    Metrics.record_outcome m (Txn.Aborted { latency_us = 5; reason })
  in
  ab (Txn.Constraint_violation "duplicate key");
  ab (Txn.Constraint_violation "unknown table");
  ab Txn.Write_conflict;
  Metrics.record_outcome m (Txn.Committed { latency_us = 9; results = [] });
  (* Constraint_violation pools by constructor, not message. *)
  Alcotest.(check int)
    "constraint violations pooled" 2
    (Metrics.aborted_by m (Txn.Constraint_violation "anything"));
  Alcotest.(check int) "write conflicts" 1 (Metrics.aborted_by m Txn.Write_conflict);
  Alcotest.(check int) "no ssi aborts" 0 (Metrics.aborted_by m Txn.Ssi_conflict);
  Alcotest.(check int) "aborted total" 3 (Metrics.aborted m);
  Alcotest.(check int) "committed total" 1 (Metrics.committed m)

(* Every count, the latency histogram, the phase means and the epoch
   cells are zeroed by the registry's reset (the end of warm-up), the one
   way to clear a node's metrics. *)
let test_metrics_reset () =
  let obs = Gg_obs.Obs.create () in
  let m = Metrics.create ~obs ~id:0 in
  Metrics.record_start m;
  Metrics.record_outcome m (Txn.Committed { latency_us = 1_000; results = [] });
  Metrics.record_outcome m
    (Txn.Aborted { latency_us = 5; reason = Txn.Write_conflict });
  Metrics.record_phases m (ph ~parse:10 ~exec:20 ~wait:30 ~merge:40 ~log:50);
  Metrics.record_epoch_commit m ~cen:1 ~latency_us:10;
  Metrics.record_merged_records m 5;
  Gg_obs.Obs.reset_all obs;
  Alcotest.(check int) "started" 0 (Metrics.started m);
  Alcotest.(check int) "committed zeroed via registry" 0 (Metrics.committed m);
  Alcotest.(check int) "aborted" 0 (Metrics.aborted m);
  Alcotest.(check int) "merged records" 0 (Metrics.merged_records m);
  Alcotest.(check int)
    "latency histogram emptied" 0
    (Gg_util.Stats.Hist.count (Metrics.latency m));
  Alcotest.(check (list int)) "epoch table cleared via hook" []
    (List.map fst (Metrics.epoch_cells m));
  let p, _, _, _, l = Metrics.phase_means_us m in
  Alcotest.(check (float 1e-6)) "phase means cleared" 0.0 (p +. l)

(* Counts live in the registry under the node's name, so they survive a
   reset_all and keep counting there. *)
let test_metrics_registry_reset_all () =
  let obs = Gg_obs.Obs.create () in
  let m = Metrics.create ~obs ~id:0 in
  Metrics.record_outcome m (Txn.Committed { latency_us = 7; results = [] });
  Metrics.record_epoch_commit m ~cen:2 ~latency_us:5;
  Gg_obs.Obs.reset_all obs;
  Alcotest.(check int) "committed zeroed via registry" 0 (Metrics.committed m);
  Alcotest.(check (list int)) "epoch table cleared via hook" []
    (List.map fst (Metrics.epoch_cells m));
  Metrics.record_outcome m (Txn.Committed { latency_us = 7; results = [] });
  Alcotest.(check int)
    "counts surface under registry name" 1
    (List.assoc "node0.txn.committed" (Gg_obs.Obs.counter_values obs))

let () =
  Alcotest.run "geogauss_core"
    [
      ( "op_exec",
        [
          Alcotest.test_case "read records version" `Quick test_op_exec_read_records_version;
          Alcotest.test_case "add reads then writes" `Quick test_op_exec_add_reads_then_writes;
          Alcotest.test_case "rmw chains in txn" `Quick test_op_exec_rmw_chains_within_txn;
          Alcotest.test_case "insert+delete cancels" `Quick test_op_exec_insert_then_delete_cancels;
          Alcotest.test_case "errors" `Quick test_op_exec_errors;
          Alcotest.test_case "read missing is noop" `Quick test_op_exec_read_missing_is_noop;
          QCheck_alcotest.to_alcotest prop_op_exec_unique_keys;
          QCheck_alcotest.to_alcotest prop_op_exec_read_set_model;
          QCheck_alcotest.to_alcotest prop_op_exec_reads_off;
          QCheck_alcotest.to_alcotest prop_op_exec_rc_reads_differential;
          QCheck_alcotest.to_alcotest prop_op_exec_matches_sql;
          Alcotest.test_case "RC read of unknown table fails" `Quick
            test_op_exec_rc_read_unknown_table;
        ] );
      ( "execution",
        [
          Alcotest.test_case "RC accepts every read" `Quick
            test_stage_rc_accepts_every_read;
          Alcotest.test_case "RR aborts on a changed csn" `Quick
            test_stage_rr_same_csn;
          Alcotest.test_case "SI aborts past the snapshot" `Quick
            test_stage_si_snapshot_rule;
          Alcotest.test_case "gone rows abort above RC" `Quick
            test_stage_gone_rows_abort;
          Alcotest.test_case "only SSI ships read keys" `Quick
            test_stage_read_keys;
          Alcotest.test_case "RC records no read set" `Quick
            test_stage_rc_no_read_set;
          Alcotest.test_case "execution errors fail" `Quick test_stage_failed;
          Alcotest.test_case "statement cache = exec_sql" `Quick
            test_stage_statement_cache;
          Alcotest.test_case "cached parse error" `Quick
            test_stage_cached_parse_error;
          Alcotest.test_case "statement cache is bounded" `Quick
            test_stage_statement_cache_bound;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "replicas copy one load" `Quick
            test_create_copies_one_load;
          QCheck_alcotest.to_alcotest prop_copy_isolation;
        ] );
      ( "basic",
        [
          Alcotest.test_case "single write commits everywhere" `Quick test_single_write_commits;
          Alcotest.test_case "write latency spans WAN" `Quick test_write_latency_spans_wan;
          Alcotest.test_case "read-only fast path" `Quick test_read_only_fast_path;
          Alcotest.test_case "empty epochs progress" `Quick test_empty_epochs_progress;
        ] );
      ( "conflicts",
        [
          Alcotest.test_case "cross-node conflict: single winner" `Quick test_cross_node_conflict_single_winner;
          Alcotest.test_case "deterministic winner" `Quick test_conflict_deterministic_value;
          Alcotest.test_case "disjoint writes all commit" `Quick test_disjoint_writes_all_commit;
        ] );
      ( "consistency",
        [
          Alcotest.test_case "sustained workload converges" `Slow test_sustained_workload_converges;
          Alcotest.test_case "answered timeouts leave the queue" `Quick
            test_answered_timeouts_leave_queue;
          Alcotest.test_case "dup+reorder robustness" `Slow test_convergence_under_duplication_and_reorder;
          Alcotest.test_case "snapshots sequentially consistent" `Slow test_sequential_consistency_of_snapshots;
        ] );
      ( "insert/delete",
        [
          Alcotest.test_case "concurrent insert conflict" `Quick test_concurrent_insert_conflict;
          Alcotest.test_case "update after delete aborts" `Quick test_delete_then_update_aborts;
          Alcotest.test_case "insert visible everywhere" `Quick test_insert_then_visible_everywhere;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "RR aborts changed read" `Quick test_rr_aborts_on_changed_read;
          Alcotest.test_case "RC tolerates changed read" `Quick test_rc_allows_changed_read;
          Alcotest.test_case "SI aborts refreshed snapshot" `Quick test_si_aborts_on_new_snapshot_of_read_row;
          Alcotest.test_case "SQL: RR aborts changed read" `Quick
            (test_sql_stale_read_aborts Params.RR);
          Alcotest.test_case "SQL: SI aborts refreshed snapshot" `Quick
            (test_sql_stale_read_aborts Params.SI);
          Alcotest.test_case "SQL: RC tolerates changed read" `Quick
            test_sql_rc_allows_changed_read;
          Alcotest.test_case "abort rates ordered by isolation" `Slow test_isolation_abort_rates_ordered;
          Alcotest.test_case "SSI aborts pivot" `Quick test_ssi_aborts_pivot;
          Alcotest.test_case "SSI disjoint commits" `Quick test_ssi_disjoint_txns_commit;
          Alcotest.test_case "SSI ships read keys" `Slow test_ssi_ships_read_keys;
        ] );
      ( "variants",
        [
          Alcotest.test_case "GeoG-S commits and converges" `Slow test_geog_s_commits_and_converges;
          Alcotest.test_case "GeoG-S slower than GeoGauss" `Slow test_geog_s_slower_than_geogauss;
          Alcotest.test_case "GeoG-A low latency + convergence" `Slow test_geog_a_low_latency_and_convergence;
          Alcotest.test_case "GeoG-A never aborts" `Slow test_geog_a_never_aborts;
        ] );
      ( "fault tolerance",
        [
          Alcotest.test_case "raft-ft converges" `Slow test_ft_raft_converges;
          Alcotest.test_case "ft latency ordering" `Slow test_ft_latency_ordering;
          Alcotest.test_case "ft_gate: one announce per tally" `Quick
            test_ft_gate_tally;
          Alcotest.test_case "raft-ft: one commit per batch" `Quick
            test_ft_raft_one_commit_per_batch;
          Alcotest.test_case "no records for merged epochs" `Slow
            test_epoch_records_bounded;
        ] );
      ( "epochs",
        [
          Alcotest.test_case "dedup on arrival" `Quick test_epochs_dedup_on_arrival;
          Alcotest.test_case "completeness" `Quick test_epochs_completeness;
          Alcotest.test_case "collect order" `Quick test_epochs_collect_order;
          Alcotest.test_case "only epochs past lsn" `Quick test_epochs_past_lsn;
          QCheck_alcotest.to_alcotest prop_epochs_collect_distinct;
        ] );
      ( "failures",
        [
          Alcotest.test_case "crash then view change" `Slow test_node_crash_blocks_then_view_change_unblocks;
          Alcotest.test_case "client rerouted" `Quick test_client_rerouted_after_crash;
          Alcotest.test_case "closed-loop timeout re-routes" `Quick
            test_closed_client_timeout_reroutes;
          Alcotest.test_case "recovery rejoins" `Slow test_node_recovery_rejoins;
        ] );
      ( "backup",
        [
          Alcotest.test_case "put requires eof" `Quick test_backup_put_requires_eof;
          Alcotest.test_case "duplicate put idempotent" `Quick test_backup_duplicate_put_idempotent;
          Alcotest.test_case "mid-epoch crash leaves consistent prefix" `Slow test_backup_after_mid_epoch_crash;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "phase means" `Quick test_metrics_phase_means;
          Alcotest.test_case "epoch cells sorted" `Quick test_metrics_epoch_cells_sorted;
          Alcotest.test_case "abort reason pooling" `Quick test_metrics_abort_reason_pooling;
          Alcotest.test_case "reset clears everything" `Quick test_metrics_reset;
          Alcotest.test_case "registry reset_all" `Quick test_metrics_registry_reset_all;
        ] );
    ]
