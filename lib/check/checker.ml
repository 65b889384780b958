module Sim = Gg_sim.Sim
module Net = Gg_sim.Net
module Fault = Gg_sim.Fault
module Topology = Gg_sim.Topology
module Obs = Gg_obs.Obs
module Db = Gg_storage.Db
module Table = Gg_storage.Table
module Params = Geogauss.Params
module Cluster = Geogauss.Cluster
module Node = Geogauss.Node
module Client = Geogauss.Client
module Ycsb = Gg_workload.Ycsb
module Tpcc = Gg_workload.Tpcc
module Driver = Gg_harness.Driver

type outcome = {
  scenario : Scenario.t;
  violation : Oracle.violation option;
  commits : int;
  aborts : int;
  timeouts : int;
  oracle_commits : int;
  lsns : int list;
}

(* Checker scenarios keep populations small: contention is what shakes
   out merge/validation bugs, and per-epoch digests touch every row. *)
let ycsb_records = 400
let hotkey_records = 300
let social_users = 400
let scan_records = 400
let secidx_records = 400

(* Request-level generators: op workloads wrap in [Op_txn], SQL-shaped
   ones ({!Gg_workload.Sqlgen}) arrive as statement lists and wrap in
   [Sql_txn]. *)
let load_and_gen (s : Scenario.t) =
  let wrap gen node =
    let next = gen node in
    fun () -> Geogauss.Txn.Op_txn (next ())
  in
  match s.workload with
  | Scenario.Ycsb_mc ->
    let p = Ycsb.with_records Ycsb.medium_contention ycsb_records in
    (Ycsb.load p, wrap (Driver.ycsb_gens p ~seed:(1000 + s.seed)))
  | Scenario.Ycsb_hc ->
    let p = Ycsb.with_records Ycsb.high_contention ycsb_records in
    (Ycsb.load p, wrap (Driver.ycsb_gens p ~seed:(1000 + s.seed)))
  | Scenario.Tpcc ->
    let c = Tpcc.small in
    (Tpcc.load c, wrap (Driver.tpcc_gens c ~seed:(1000 + s.seed)))
  | Scenario.Hotkey ->
    let p = Gg_workload.Hotkey.with_records Gg_workload.Hotkey.base hotkey_records in
    (Gg_workload.Hotkey.load p, wrap (Driver.hotkey_gens p ~seed:(1000 + s.seed)))
  | Scenario.Social ->
    let p = Gg_workload.Social.with_users Gg_workload.Social.base social_users in
    (Gg_workload.Social.load p, wrap (Driver.social_gens p ~seed:(1000 + s.seed)))
  | Scenario.Scan ->
    let p =
      Gg_workload.Sqlgen.Scan.with_records Gg_workload.Sqlgen.Scan.base
        scan_records
    in
    (Gg_workload.Sqlgen.Scan.load p, Driver.scan_req_gens p ~seed:(1000 + s.seed))
  | Scenario.Secidx ->
    let p =
      Gg_workload.Sqlgen.Secidx.with_records Gg_workload.Sqlgen.Secidx.base
        secidx_records
    in
    ( Gg_workload.Sqlgen.Secidx.load p,
      Driver.secidx_req_gens p ~seed:(1000 + s.seed) )

(* The self-test canary: silently tombstone one committed row on one
   replica, bypassing the protocol. A correct checker must notice — the
   next snapshot digest on that node diverges. *)
let inject_corruption cluster ~node ~at_ms =
  let sim = Cluster.sim cluster in
  Sim.schedule_at sim (Sim.ms at_ms) (fun () ->
      let db = Node.db (Cluster.node cluster node) in
      match Db.table_names db with
      | [] -> ()
      | name :: _ -> (
        let table = Db.get_table_exn db name in
        let victim = ref None in
        (try
           Table.scan table ~f:(fun e ->
               victim := Some e;
               raise Exit)
         with Exit -> ());
        match !victim with
        | None -> ()
        | Some entry -> Table.delete table entry))

let run ?trace (s : Scenario.t) =
  let params = Scenario.params s in
  let topology = Topology.china s.nodes in
  let load, gen = load_and_gen s in
  let cluster =
    Cluster.create ~params ~jitter_frac:s.jitter ~loss:s.loss ~dup:s.dup
      ~reorder:s.reorder ~topology ~load ()
  in
  if s.corrupt_frac > 0.0 then
    Net.set_corrupt_frac (Cluster.net cluster) s.corrupt_frac;
  let obs = Cluster.obs cluster in
  (match trace with Some _ -> Obs.set_tracing obs true | None -> ());
  let oracle = Oracle.create cluster in
  Fault.install (Cluster.net cluster)
    ~on_crash:(fun n -> Cluster.crash cluster n)
    ~on_recover:(fun n -> Cluster.recover cluster n)
    ~on_skew:(fun node ~delta_us ->
      Gg_sim.Clock.inject_step (Cluster.clock cluster) ~node ~delta_us)
    s.faults;
  (match s.corruption with
  | Some (node, at_ms) -> inject_corruption cluster ~node ~at_ms
  | None -> ());
  let clients =
    List.init s.nodes (fun home ->
        Client.create cluster ~home ~connections:s.connections
          ~gen:(gen home))
  in
  List.iter Client.start clients;
  (* Advance in small steps so a violation stops the run near the epoch
     that caused it (the shrinker then truncates the schedule there). *)
  let chunk_ms = 50 in
  let rec drive elapsed =
    if elapsed < s.duration_ms && Oracle.first oracle = None then begin
      Cluster.run_for_ms cluster chunk_ms;
      drive (elapsed + chunk_ms)
    end
  in
  drive 0;
  List.iter Client.stop clients;
  (* Drain in-flight transactions, then settle all replicas. *)
  Cluster.run_for_ms cluster 800;
  let violation =
    match s.variant with
    | Params.Async_merge ->
      (* No epochs to quiesce: once gossip stops flowing, every replica
         must have applied the same LWW winners. *)
      (match Cluster.digests cluster with
      | [] | [ _ ] -> None
      | d :: rest ->
        if List.for_all (fun d' -> d' = d) rest then None
        else
          Some
            {
              Oracle.invariant = Oracle.Convergence;
              epoch = -1;
              node = -1;
              detail = "replicas diverge after gossip settled";
            })
    | Params.Optimistic | Params.Sync_exec ->
      if Oracle.first oracle = None then Cluster.quiesce cluster;
      (* Liveness floor: replicas should reach half the epochs. Each
         corrupted frame is only recovered at the next 100 ms stall-
         repair tick — tens of epochs at the shortest epoch lengths — so
         corruption runs get a looser floor; convergence, durability and
         the merge laws still hold at full strength. *)
      let div = if s.corrupt_frac > 0.0 then 4 else 2 in
      let min_lsn = s.duration_ms / s.epoch_ms / div in
      Oracle.finalize oracle ~min_lsn
  in
  (match trace with
  | Some path ->
    Driver.write_trace ~path ~label:(Scenario.to_string s) ~params ~topology
      ~nodes:s.nodes ~warmup_ms:0 ~measure_ms:s.duration_ms ~window_start_us:0
      obs []
  | None -> ());
  {
    scenario = s;
    violation;
    commits = List.fold_left (fun a c -> a + Client.committed c) 0 clients;
    aborts = List.fold_left (fun a c -> a + Client.aborted c) 0 clients;
    timeouts = List.fold_left (fun a c -> a + Client.timeouts c) 0 clients;
    oracle_commits = Oracle.n_commits oracle;
    lsns = Cluster.lsns cluster;
  }

let reproducer (s : Scenario.t) (v : Oracle.violation) =
  Printf.sprintf "VIOLATION %s %s" (Scenario.to_string s)
    (Oracle.violation_to_string v)

type failure = {
  original : Scenario.t;
  minimized : Scenario.t;
  min_violation : Oracle.violation;
  shrink_runs : int;
}

type report = {
  seeds_run : int;
  total_commits : int;
  failures : failure list;
}

let shrink_and_report ?log s v =
  let emit m = match log with Some f -> f m | None -> () in
  let rerun s' = (run s').violation in
  let minimized, min_violation, shrink_runs = Shrink.minimize ~run:rerun s v in
  emit
    (Printf.sprintf "  shrunk in %d runs: %s" shrink_runs
       (reproducer minimized min_violation));
  { original = s; minimized; min_violation; shrink_runs }

(* Each seed is one pool task: a fully self-contained simulation (own
   Sim/Obs/Db/RNGs, no printing). Results stream back in seed order, so
   the log and the report are byte-identical at any [pool] width; the
   default sequential pool is the exact legacy loop. Shrinking reruns
   happen on the calling domain, between ordered deliveries, exactly
   where the sequential run would do them. *)
let check ?log ?variant ?isolation ?ft ?(fast = false) ?(base = 0)
    ?(pool = Gg_par.Pool.seq)
    ?(corrupt_frac = 0.0)
    ?(merge_level = Params.Row) ?(fastpath = false) ?(clock_skew_ms = 5)
    ~seeds () =
  let emit m = match log with Some f -> f m | None -> () in
  let failures = ref [] in
  let total_commits = ref 0 in
  let tasks =
    List.init seeds (fun i ->
        let s = Scenario.generate ?variant ?isolation ?ft ~fast (base + i) in
        (* Pinned after generation: the seed's RNG draws are identical
           at any [merge_level] / [corrupt_frac], so the scenario
           differs only in the knobs themselves. *)
        let s = Scenario.with_merge_level s merge_level in
        let s =
          if not fastpath then s else Scenario.with_fastpath s ~clock_skew_ms
        in
        (* A corrupted frame is a dropped frame; GeoG-A's gossip makes
           no promises under drops (the generator zeroes [loss] for it
           for the same reason), so the corruption pin skips it. *)
        let s =
          if corrupt_frac = 0.0 || s.Scenario.variant = Params.Async_merge
          then s
          else { s with Scenario.corrupt_frac }
        in
        fun () -> (s, run s))
  in
  Gg_par.Pool.iter_ordered pool tasks ~f:(fun _ (s, o) ->
      total_commits := !total_commits + o.commits;
      match o.violation with
      | None ->
        emit
          (Printf.sprintf "seed %d: ok (%d commits, %d aborts, %d timeouts) %s"
             s.Scenario.seed o.commits o.aborts o.timeouts
             (Scenario.to_string s))
      | Some v ->
        emit (Printf.sprintf "seed %d: %s" s.Scenario.seed (reproducer s v));
        failures := shrink_and_report ?log s v :: !failures);
  {
    seeds_run = seeds;
    total_commits = !total_commits;
    failures = List.rev !failures;
  }
