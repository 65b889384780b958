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
  let check_mode name make_clients =
    let c = make_cluster () in
    let clients = make_clients c in
    let conns = 3 * 8 in
    run_ms c 3_000;
    let running = Gg_sim.Sim.pending (Cluster.sim c) in
    List.iter Client.stop clients;
    Cluster.quiesce c;
    let committed = List.fold_left (fun a cl -> a + Client.committed cl) 0 clients in
    let drained = Gg_sim.Sim.pending (Cluster.sim c) in
    Alcotest.(check bool) (Printf.sprintf "%s: %d commits" name committed) true
      (committed > 500);
    Alcotest.(check bool)
      (Printf.sprintf "%s: %d pending while running <= %d" name running (8 * conns))
      true
      (running <= 8 * conns);
    Alcotest.(check bool)
      (Printf.sprintf "%s: %d pending after quiesce <= %d" name drained (2 * conns))
      true
      (drained <= 2 * conns)
  in
  check_mode "closed" (fun c -> mixed_workload_clients ~connections:8 c 4242);
  check_mode "open" (fun c ->
      List.map (fun i ->
          let rng = Gg_util.Rng.create (777 + i) in
          let gen () = add_txn (Gg_util.Rng.int rng 200) 1 in
          let mode =
            Client.Open
              {
                arrival =
                  Gg_workload.Arrival.make ~shape:Gg_workload.Arrival.Constant
                    ~peak_tps:400.0;
                queue_cap = 64;
              }
          in
          let cl = Client.create ~mode c ~home:i ~connections:8 ~gen in
          Client.start cl;
          cl)
        (Cluster.members c))

let test_convergence_under_duplication_and_reorder () =
  (* The CRDT merge must absorb duplicated and reordered batches. *)
  let c = make_cluster ~dup:0.2 ~reorder:0.2 () in
  let clients = mixed_workload_clients c 2000 in
  run_ms c 3_000;
  List.iter Client.stop clients;
  check_converged ~msg:"converged despite dup+reorder" c

let test_sequential_consistency_of_snapshots () =
  (* lsns advance together and digests agree after quiesce at several
     points in time. *)
  let c = make_cluster () in
  let clients = mixed_workload_clients c 3000 in
  run_ms c 1_000;
  List.iter Client.stop clients;
  check_converged c;
  List.iter Client.start clients;
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
  match Cluster.digests c with
  | d :: rest -> List.iter (fun d' -> Alcotest.(check string) "eventual convergence" d d') rest
  | [] -> Alcotest.fail "no nodes"

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

let test_metrics_phase_means () =
  let m = Metrics.create () in
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
  let m = Metrics.create () in
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
  let m = Metrics.create () in
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

let test_metrics_reset () =
  let m = Metrics.create () in
  Metrics.record_start m;
  Metrics.record_outcome m (Txn.Committed { latency_us = 1_000; results = [] });
  Metrics.record_phases m (ph ~parse:10 ~exec:20 ~wait:30 ~merge:40 ~log:50);
  Metrics.record_epoch_commit m ~cen:1 ~latency_us:10;
  Metrics.record_merged_records m 5;
  Metrics.reset m;
  Alcotest.(check int) "started" 0 (Metrics.started m);
  Alcotest.(check int) "committed" 0 (Metrics.committed m);
  Alcotest.(check int) "merged records" 0 (Metrics.merged_records m);
  Alcotest.(check int)
    "latency histogram emptied" 0
    (Gg_util.Stats.Hist.count (Metrics.latency m));
  Alcotest.(check (list int)) "epoch cells dropped" []
    (List.map fst (Metrics.epoch_cells m));
  let p, _, _, _, l = Metrics.phase_means_us m in
  Alcotest.(check (float 1e-6)) "phase means cleared" 0.0 (p +. l)

let test_metrics_registry_reset_all () =
  let obs = Gg_obs.Obs.create () in
  let m = Metrics.create ~obs ~id:0 () in
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

(* --- partial replication: the partition map and the cross-group
   protocol, driven directly (DESIGN.md §12) --- *)

module Ws = Gg_crdt.Writeset
module Csn = Gg_storage.Csn

let china6 = Topology.china 6
let part_of mode = Partitioning.make ~topology:china6 ~epoch_us:10_000 mode

(* hash:2 on six nodes: group 0 = {0, 2, 4}, group 1 = {1, 3, 5}. *)
let hash2 = part_of (Params.P_hash 2)

(* The first kv key from [from] on owned by [group]. *)
let key_in ?(from = 0) group =
  let rec go k =
    if Partitioning.group_of_key hash2 (Value.encode_key [| Value.Int k |]) = group
    then k
    else go (k + 1)
  in
  go from

let kv_update k v =
  Ws.make_record ~table:"kv" ~key:[| Value.Int k |] ~op:Ws.Update
    ~data:[| Value.Int k; Value.Int v; Value.Str "x" |] ()

let cross_ws ~origin ~ts records =
  Ws.make
    ~meta:(Gg_crdt.Meta.make ~sen:0 ~cen:0 ~csn:(Csn.make ~ts ~node:origin))
    ~records ()

let kv_value db k =
  match Gg_storage.Db.get_table db "kv" with
  | None -> Alcotest.fail "no kv table"
  | Some table -> (
    match Gg_storage.Table.find table (Value.encode_key [| Value.Int k |]) with
    | Some e -> e.Gg_storage.Table.data.(1)
    | None -> Alcotest.fail "row missing")

(* Node 0's cross-group stage after merging epoch 0 of [full]. *)
let merged_cross ?(backup = Backup.create ~n:6) full =
  let db = Gg_storage.Db.create () in
  kv_load 50 db;
  let cg =
    Option.get
      (Cross_group.create hash2 ~topology:china6 ~backup ~db ~node:0)
  in
  let ep, frags = Cross_group.fragments cg full in
  let m =
    Epoch_merge.run ~db ~jobs:1 ~ssi:false ~defer:(Cross_group.deferred ep)
      frags
  in
  (cg, db, Cross_group.votes cg ep m ~cen:0 full)

let test_vote_depth_formula () =
  let maxlat = ref 0 in
  for i = 0 to 5 do
    for j = 0 to 5 do
      if i mod 2 <> j mod 2 then
        maxlat := max !maxlat (Topology.latency china6 i j)
    done
  done;
  (* 4 ms does not divide 2 maxlat (70 ms) on china6: the ceiling shows *)
  List.iter
    (fun epoch_us ->
      let expect =
        2 + int_of_float (ceil (2.0 *. float !maxlat /. float epoch_us))
      in
      Alcotest.(check int) "2 + ceil(2 maxlat / epoch)" expect
        (Partitioning.vote_depth
           (Partitioning.make ~topology:china6 ~epoch_us (Params.P_hash 2))))
    [ 10_000; 4_000 ];
  Alcotest.(check int) "0 when disabled" 0
    (Partitioning.vote_depth (part_of Params.P_none))

let test_fragment_identity_when_disabled () =
  let ws = cross_ws ~origin:0 ~ts:5 [ kv_update (key_in 0) 1; kv_update (key_in 1) 1 ] in
  List.iter
    (fun mode ->
      let part = part_of mode in
      Alcotest.(check bool) "disabled" false (Partitioning.enabled part);
      List.iter
        (fun group ->
          Alcotest.(check bool) "physically the same write set" true
            (Partitioning.fragment part ~group ws == ws))
        [ 0; 1 ])
    [ Params.P_none; Params.P_hash 1 ];
  Alcotest.(check bool) "no stage installed" true
    (Option.is_none
       (Cross_group.create (part_of Params.P_none) ~topology:china6
          ~backup:(Backup.create ~n:6) ~db:(Gg_storage.Db.create ()) ~node:0))

let test_dead_group_verdict () =
  let k0 = key_in 0 and k1 = key_in 1 in
  let ws = cross_ws ~origin:0 ~ts:5 [ kv_update k0 7; kv_update k1 7 ] in
  let key = Epoch_merge.csn_key ws in
  let d = Partitioning.vote_depth hash2 in
  let all = [ 0; 1; 2; 3; 4; 5 ] and group0 = [ 0; 2; 4 ] in
  (* Group 1 alive but silent: the merge waits for its vote. *)
  let cg, _, (verdicts, dsts) = merged_cross [ ws ] in
  Alcotest.(check (list (pair int bool))) "own vote" [ (key, true) ] verdicts;
  Alcotest.(check (list int)) "speaker sends to group 1" [ 1; 3; 5 ] dsts;
  Alcotest.(check bool) "waits on a live group" false
    (Cross_group.ready cg ~e:d ~members:all);
  (* Group 1 dead, nothing in the backup: a rejection. *)
  Alcotest.(check bool) "dead group is decided" true
    (Cross_group.ready cg ~e:d ~members:group0);
  (match Cross_group.resolve cg ~e:d ~members:group0 with
  | [ r ] ->
    Alcotest.(check bool) "no backup record rejects" true
      (r.Cross_group.abort = Some Txn.Cross_abort)
  | _ -> Alcotest.fail "one decision expected");
  (* Group 1 dead after voting: its backup verdict is adopted. *)
  let backup = Backup.create ~n:6 in
  Backup.put_votes backup ~group:1 ~cen:0 [ (key, true) ];
  let cg, db, _ = merged_cross ~backup [ ws ] in
  Alcotest.(check bool) "write-back deferred" true (kv_value db k0 = Value.Int 0);
  (match Cross_group.resolve cg ~e:d ~members:group0 with
  | [ r ] ->
    Alcotest.(check bool) "backup vote adopted" true (r.Cross_group.abort = None)
  | _ -> Alcotest.fail "one decision expected");
  Alcotest.(check bool) "deferred write applied" true (kv_value db k0 = Value.Int 7)

let test_resolution_csn_order () =
  let a = cross_ws ~origin:0 ~ts:10 [ kv_update (key_in 0) 1; kv_update (key_in 1) 1 ] in
  let b =
    cross_ws ~origin:2 ~ts:9
      [ kv_update (key_in ~from:(key_in 0 + 1) 0) 2; kv_update (key_in 1) 2 ]
  in
  let c = cross_ws ~origin:4 ~ts:3 [ kv_update (key_in 1) 3 ] in
  let backup = Backup.create ~n:6 in
  let cg, _, _ = merged_cross ~backup [ a; b; c ] in
  let got =
    List.map
      (fun r -> r.Cross_group.csn)
      (Cross_group.resolve cg ~e:(Partitioning.vote_depth hash2) ~members:[ 0; 2; 4 ])
  in
  Alcotest.(check (list int)) "packed-csn order"
    (List.sort compare (List.map Epoch_merge.csn_key [ a; b; c ]))
    got

let test_vote_only_foreign_origin () =
  (* Node 1 (group 1) wrote only a group-0 key: group 0 merges it without
     deferral, but its origin waits on group 0's verdict. *)
  let ws = cross_ws ~origin:1 ~ts:5 [ kv_update (key_in 0) 4 ] in
  let _, db, (verdicts, dsts) = merged_cross [ ws ] in
  Alcotest.(check (list (pair int bool))) "in the vote"
    [ (Epoch_merge.csn_key ws, true) ] verdicts;
  Alcotest.(check (list int)) "sent to the origin" [ 1 ] dsts;
  Alcotest.(check bool) "written back at once" true
    (kv_value db (key_in 0) = Value.Int 4)

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
      ( "failures",
        [
          Alcotest.test_case "crash then view change" `Slow test_node_crash_blocks_then_view_change_unblocks;
          Alcotest.test_case "client rerouted" `Quick test_client_rerouted_after_crash;
          Alcotest.test_case "recovery rejoins" `Slow test_node_recovery_rejoins;
        ] );
      ( "cross_group",
        [
          Alcotest.test_case "vote depth formula" `Quick test_vote_depth_formula;
          Alcotest.test_case "fragment identity when disabled" `Quick
            test_fragment_identity_when_disabled;
          Alcotest.test_case "dead group verdict from backup" `Quick
            test_dead_group_verdict;
          Alcotest.test_case "resolution in packed-csn order" `Quick
            test_resolution_csn_order;
          Alcotest.test_case "vote-only foreign origin" `Quick
            test_vote_only_foreign_origin;
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
