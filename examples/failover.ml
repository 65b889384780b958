(* Regional failover: crash a region mid-traffic and watch the cluster
   heal (the paper's §5.2 + Fig 13 scenario).

   Run with:  dune exec examples/failover.exe

   Timeline:
     t=0s   three regions serve local clients
     t=3s   the Shenzhen node (2) crashes; its clients time out and
            re-route to the nearest surviving region; survivors block
            briefly until Raft membership removes the dead node
     t=8s   the node recovers: it re-joins through a membership change
            and a state-snapshot transfer from the nearest donor
     t=13s  end — all live replicas must agree byte-for-byte            *)

open Geogauss
module Value = Gg_storage.Value

let () =
  print_endline "== Regional failover demo (3 regions, YCSB-like updates) ==";
  let records = 3_000 in
  let cluster =
    Cluster.create
      ~topology:(Gg_sim.Topology.china3 ())
      ~load:(fun db ->
        let t =
          Gg_storage.Db.create_table db ~name:"kv"
            ~columns:
              [
                { Gg_storage.Schema.name = "k"; ty = Gg_storage.Schema.TInt };
                { name = "v"; ty = TInt };
              ]
            ~key:[ "k" ]
        in
        for i = 0 to records - 1 do
          Gg_storage.Table.load t [| Value.Int i; Value.Int 0 |]
        done)
      ()
  in
  let clients =
    List.init 3 (fun region ->
        let rng = Gg_util.Rng.create (900 + region) in
        let gen () =
          let k = Gg_util.Rng.int rng records in
          Txn.Op_txn
            (Gg_workload.Op.make ~label:"upd"
               [
                 Gg_workload.Op.Add
                   { table = "kv"; key = [| Value.Int k |]; col = 1; delta = 1 };
               ])
        in
        let c = Client.create cluster ~home:region ~connections:8 ~gen in
        Client.start c;
        c)
  in
  let status label =
    Printf.printf "%-26s members=%s lsns=%s committed=%d timeouts(c3)=%d\n" label
      (String.concat "," (List.map string_of_int (Cluster.members cluster)))
      (String.concat "," (List.map string_of_int (Cluster.lsns cluster)))
      (Cluster.total_committed cluster)
      (Client.timeouts (List.nth clients 2))
  in

  Cluster.run_for_ms cluster 3_000;
  status "t=3s (healthy)";

  print_endline "\n-- crashing node 2 (Shenzhen) --";
  Cluster.crash cluster 2;
  Cluster.run_for_ms cluster 1_500;
  status "t=4.5s (detected, removed)";
  Printf.printf "   client3 now routed to node %d\n" (Cluster.route cluster ~preferred:2);

  Cluster.run_for_ms cluster 3_500;
  status "t=8s (2-node operation)";

  print_endline "\n-- recovering node 2 --";
  Cluster.recover cluster 2;
  Cluster.run_for_ms cluster 3_000;
  status "t=11s (re-joined)";
  Printf.printf "   client3 routed home to node %d\n" (Cluster.route cluster ~preferred:2);

  Cluster.run_for_ms cluster 2_000;
  List.iter Client.stop clients;
  Cluster.quiesce cluster;
  status "t=13s (final)";
  match Cluster.digests cluster with
  | d :: rest when List.for_all (String.equal d) rest ->
    Printf.printf
      "\nAll replicas (including the recovered one) agree: digest %s\n"
      (String.sub d 0 12)
  | ds ->
    Printf.printf "\nERROR: digests differ: %s\n"
      (String.concat " " (List.map (fun d -> String.sub d 0 8) ds));
    exit 1
