(* Quickstart: a three-region GeoGauss cluster driven through the SQL
   API.

   Run with:  dune exec examples/quickstart.exe

   Every replica accepts local reads AND writes (multi-master); the
   epoch-based OCC merges concurrent updates and answers clients once
   the epoch snapshot is globally consistent. *)

open Geogauss
module Value = Gg_storage.Value

(* A transaction is a list of (sql, parameters); the callback fires once
   the commit epoch's snapshot is generated on the serving replica. *)
let exec cluster ~node stmts =
  let result = ref None in
  Cluster.submit cluster ~node (Txn.Sql_txn { label = "quickstart"; stmts })
    (fun o -> result := Some o);
  (* Advance simulated time until the cluster answers. *)
  let budget = ref 1_000 in
  while !result = None && !budget > 0 do
    decr budget;
    Cluster.run_for_ms cluster 5
  done;
  match !result with
  | Some o -> o
  | None -> failwith "no response"

let show label = function
  | Txn.Committed { results; latency_us } ->
    Printf.printf "%-28s COMMIT in %5.1f ms\n" label
      (float_of_int latency_us /. 1000.);
    List.iter
      (fun (r : Gg_sql.Executor.result) ->
        List.iter
          (fun row ->
            print_string "    ";
            Array.iter (fun v -> Printf.printf "%s  " (Value.to_string v)) row;
            print_newline ())
          r.Gg_sql.Executor.rows)
      results
  | Txn.Aborted { reason; _ } ->
    Printf.printf "%-28s ABORT (%s)\n" label (Txn.abort_reason_to_string reason)

let () =
  print_endline "== GeoGauss quickstart: 3 regions (Zhangjiakou / Chengdu / Shenzhen) ==";
  (* [load] populates every replica identically — the initial snapshot. *)
  let cluster =
    Cluster.create
      ~topology:(Gg_sim.Topology.china3 ())
      ~load:(fun db ->
        let t =
          Gg_storage.Db.create_table db ~name:"accounts"
            ~columns:
              [
                { Gg_storage.Schema.name = "id"; ty = Gg_storage.Schema.TInt };
                { name = "owner"; ty = TStr };
                { name = "balance"; ty = TInt };
              ]
            ~key:[ "id" ]
        in
        Gg_storage.Table.load t [| Value.Int 1; Value.Str "ada"; Value.Int 100 |];
        Gg_storage.Table.load t [| Value.Int 2; Value.Str "alan"; Value.Int 200 |])
      ()
  in

  (* Local reads are served from the replica's snapshot: no WAN wait. *)
  show "read @ Zhangjiakou (node 0)"
    (exec cluster ~node:0 [ ("SELECT owner, balance FROM accounts WHERE id = 1", [||]) ]);

  (* A write commits only after its epoch's write sets have been merged
     on all replicas — roughly one cross-region one-way delay later. *)
  show "transfer @ Chengdu (node 1)"
    (exec cluster ~node:1
       [
         ("UPDATE accounts SET balance = balance - 30 WHERE id = 1", [||]);
         ("UPDATE accounts SET balance = balance + 30 WHERE id = 2", [||]);
       ]);

  (* GeoGauss guarantees sequential consistency at epoch granularity,
     not linearizability: a read at another replica a few milliseconds
     after the commit may still see the previous snapshot... *)
  show "immediate read @ node 0"
    (exec cluster ~node:0 [ ("SELECT balance FROM accounts WHERE id = 1", [||]) ]);
  (* ...but one epoch later every replica serves the merged state. *)
  Cluster.run_for_ms cluster 100;
  List.iter
    (fun node ->
      show
        (Printf.sprintf "balances @ node %d" node)
        (exec cluster ~node [ ("SELECT id, balance FROM accounts ORDER BY id", [||]) ]))
    [ 0; 1; 2 ];

  (* Parameterized statements use ? placeholders. *)
  show "insert with params @ node 2"
    (exec cluster ~node:2
       [ ("INSERT INTO accounts VALUES (?, ?, ?)", [| Value.Int 3; Value.Str "grace"; Value.Int 500 |]) ]);

  show "aggregate @ node 0"
    (exec cluster ~node:0
       [ ("SELECT COUNT(*), SUM(balance) FROM accounts", [||]) ]);

  (* Replica-state digests prove byte-level convergence. *)
  Cluster.quiesce cluster;
  (match Cluster.digests cluster with
  | d :: rest when List.for_all (String.equal d) rest ->
    Printf.printf "\nAll 3 replicas converged (digest %s)\n" (String.sub d 0 12)
  | _ ->
    print_endline "\nERROR: replicas diverged!";
    exit 1);
  Printf.printf "Total committed: %d, aborted: %d\n"
    (Cluster.total_committed cluster)
    (Cluster.total_aborted cluster)
