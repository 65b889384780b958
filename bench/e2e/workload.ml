(* The benchmark's five workloads. Every one runs on china3 (3 replicas,
   one per region) with the paper's closed-loop clients: each simulated
   connection keeps one transaction outstanding, so a slower system
   receives less load. README.md says why each workload exists. *)

module Params = Geogauss.Params
module Driver = Gg_harness.Driver
module Ycsb = Gg_workload.Ycsb

type t = {
  name : string;
  params : Params.t;
  topology : Gg_sim.Topology.t;
  load : Gg_storage.Db.t -> unit;
  gen : Driver.request_gen;
  connections : int;  (** simulated closed-loop connections per node *)
  warmup_ms : int;
  window_ms : int;
}

let names = [ "ycsb-mc"; "ycsb-ro"; "tpcc"; "sql-scan"; "eocc-skew10" ]

let op_requests (gens : Driver.workload_gen) node =
  let next = gens node in
  fun () -> Geogauss.Txn.Op_txn (next ())

(* [seed] drives the generators only. The deployment keeps
   [Params.default]'s seed, so network jitter and eocc's clock offsets
   are one fixed draw: eocc-skew10's p50 would otherwise move 12% with
   the clock draw alone. [smoke] keeps the inputs and shrinks the
   simulated time to 0.2 s per run. *)
let make ~smoke ~seed name =
  let workload ?(params = Params.default) ~load ~gen ~connections ~warmup_ms
      ~window_ms () =
    let warmup_ms, window_ms =
      if smoke then (50, 150) else (warmup_ms, window_ms)
    in
    {
      name;
      params;
      topology = Gg_sim.Topology.china3 ();
      load;
      gen;
      connections;
      warmup_ms;
      window_ms;
    }
  in
  let ycsb ?params profile =
    let profile = Ycsb.with_records profile 50_000 in
    workload ?params ~load:(Ycsb.load profile)
      ~gen:(op_requests (Driver.ycsb_gens profile ~seed))
      ~connections:64 ~warmup_ms:300 ~window_ms:1_200 ()
  in
  match name with
  | "ycsb-mc" -> ycsb Ycsb.medium_contention
  | "ycsb-ro" ->
    (* Without the 2% held reads every read-only latency is the same CPU
       cost, identical on every seed. *)
    ycsb (Ycsb.with_long_txns Ycsb.read_only ~frac:0.02 ~delay_us:20_000)
  | "eocc-skew10" ->
    let fastpath = Params.with_fastpath Params.default true in
    ycsb
      ~params:(Params.with_clock_skew_us fastpath 10_000)
      Ycsb.medium_contention
  | "tpcc" ->
    let cfg = Gg_workload.Tpcc.default in
    workload ~load:(Gg_workload.Tpcc.load cfg)
      ~gen:(op_requests (Driver.tpcc_gens cfg ~seed))
      ~connections:40 ~warmup_ms:300 ~window_ms:1_200 ()
  | "sql-scan" ->
    let profile = Gg_workload.Sqlgen.Scan.(with_records base 2_000) in
    workload
      ~load:(Gg_workload.Sqlgen.Scan.load profile)
      ~gen:(Driver.scan_req_gens profile ~seed)
      ~connections:64 ~warmup_ms:100 ~window_ms:400 ()
  | other ->
    invalid_arg
      (Printf.sprintf "unknown workload %S (known: %s)" other
         (String.concat ", " names))

let sim_s w = float_of_int (w.warmup_ms + w.window_ms) /. 1000.0
