(* Global flash sale: three regions hammer the same inventory rows.

   Run with:  dune exec examples/geo_retail.exe

   This is the scenario from the paper's introduction — a multinational
   retailer whose customers in every region write to the same catalog.
   With a sharded master-follower design all those writes would cross
   the WAN to a single master; with GeoGauss each region writes locally
   and the epoch merge resolves conflicts deterministically: stock never
   goes negative, oversells abort, and all replicas agree. *)

open Geogauss
module Value = Gg_storage.Value
module Op = Gg_workload.Op

let n_products = 20
let initial_stock = 40
let connections_per_region = 12
let sale_ms = 2_500

let () =
  Printf.printf
    "== Flash sale: %d products x %d units, 3 regions buying concurrently ==\n"
    n_products initial_stock;
  let cluster =
    Cluster.create
      ~topology:(Gg_sim.Topology.china3 ())
      ~load:(fun db ->
        let t =
          Gg_storage.Db.create_table db ~name:"inventory"
            ~columns:
              [
                { Gg_storage.Schema.name = "product"; ty = Gg_storage.Schema.TInt };
                { name = "stock"; ty = TInt };
                { name = "sold"; ty = TInt };
              ]
            ~key:[ "product" ]
        in
        for p = 0 to n_products - 1 do
          Gg_storage.Table.load t [| Value.Int p; Value.Int initial_stock; Value.Int 0 |]
        done)
      ()
  in
  (* Each purchase is a read-check-decrement on one product row. The
     stock check runs on the local snapshot; the write-write merge keeps
     one winner per row per conflict. Under RR isolation, purchases that
     raced a concurrent sale of the same product are also caught by read
     validation. *)
  let attempted = Array.make 3 0 in
  let sold_out_hits = ref 0 in
  let clients =
    List.init 3 (fun region ->
        let rng = Gg_util.Rng.create (100 + region) in
        let zipf = Gg_util.Zipf.create ~theta:0.6 ~n:n_products in
        let gen () =
          attempted.(region) <- attempted.(region) + 1;
          let product = Gg_util.Zipf.next zipf rng in
          Txn.Sql_txn
            {
              label = "purchase";
              stmts =
                [
                  (* The guard in the WHERE clause makes over-selling a
                     0-rows-affected no-op rather than a negative stock. *)
                  ( "UPDATE inventory SET stock = stock - 1, sold = sold + 1 \
                     WHERE product = ? AND stock > 0",
                    [| Value.Int product |] );
                ];
            }
        in
        let c = Client.create cluster ~home:region ~connections:connections_per_region ~gen in
        Client.start c;
        c)
  in
  Cluster.run_for_ms cluster sale_ms;
  List.iter Client.stop clients;
  Cluster.quiesce cluster;
  ignore !sold_out_hits;

  (* Audit every replica. *)
  let audit node =
    let db = Node.db (Cluster.node cluster node) in
    let t = Gg_storage.Db.get_table_exn db "inventory" in
    let total_stock = ref 0 and total_sold = ref 0 and negative = ref 0 in
    Gg_storage.Table.scan t ~f:(fun e ->
        match (e.Gg_storage.Table.data.(1), e.Gg_storage.Table.data.(2)) with
        | Value.Int stock, Value.Int sold ->
          total_stock := !total_stock + stock;
          total_sold := !total_sold + sold;
          if stock < 0 then incr negative
        | _ -> ());
    (!total_stock, !total_sold, !negative)
  in
  let committed = Cluster.total_committed cluster in
  let aborted = Cluster.total_aborted cluster in
  Printf.printf "purchases attempted: %d   committed: %d   aborted: %d (%.1f%%)\n"
    (Array.fold_left ( + ) 0 attempted)
    committed aborted
    (100. *. float_of_int aborted /. float_of_int (max 1 (committed + aborted)));
  List.iter
    (fun node ->
      let stock, sold, negative = audit node in
      Printf.printf
        "replica %d: stock %4d  sold %4d  (stock+sold = %d, negatives: %d)\n"
        node stock sold (stock + sold) negative)
    [ 0; 1; 2 ];
  match Cluster.digests cluster with
  | d :: rest when List.for_all (String.equal d) rest ->
    Printf.printf "invariant holds on every replica; digests agree (%s)\n"
      (String.sub d 0 12)
  | _ ->
    print_endline "ERROR: replicas diverged!";
    exit 1
