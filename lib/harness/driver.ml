module Sim = Gg_sim.Sim
module Net = Gg_sim.Net
module Obs = Gg_obs.Obs
module Jsonl = Gg_obs.Jsonl
module Topology = Gg_sim.Topology
module Op = Gg_workload.Op
module Engine = Gg_engines.Engine
module Stats = Gg_util.Stats

type workload_gen = int -> unit -> Op.txn
type request_gen = int -> unit -> Geogauss.Txn.request

let ycsb_gens profile ~seed node =
  let g = Gg_workload.Ycsb.create profile ~seed:(seed + (1_000 * node)) in
  fun () -> Gg_workload.Ycsb.next_txn g

let tpcc_gens cfg ~seed node =
  let g = Gg_workload.Tpcc.create cfg ~seed:(seed + (1_000 * node)) ~node in
  fun () -> Gg_workload.Tpcc.next_txn g

let hotkey_gens profile ~seed node =
  let g = Gg_workload.Hotkey.create profile ~seed:(seed + (1_000 * node)) in
  fun () -> Gg_workload.Hotkey.next_txn g

let social_gens profile ~seed node =
  let g = Gg_workload.Social.create profile ~seed:(seed + (1_000 * node)) in
  fun () -> Gg_workload.Social.next_txn g

let scan_req_gens profile ~seed node =
  let g = Gg_workload.Sqlgen.Scan.create profile ~seed:(seed + (1_000 * node)) in
  fun () ->
    let label, stmts = Gg_workload.Sqlgen.Scan.next_stmts g in
    Geogauss.Txn.Sql_txn { label; stmts }

let secidx_req_gens profile ~seed node =
  let g =
    Gg_workload.Sqlgen.Secidx.create profile ~seed:(seed + (1_000 * node))
  in
  fun () ->
    let label, stmts = Gg_workload.Sqlgen.Secidx.next_stmts g in
    Geogauss.Txn.Sql_txn { label; stmts }

(* Shared closed-loop measurement over an abstract submit function. *)
let drive ~sim ~net ~submit ~gen ~connections ~warmup_ms ~measure_ms =
  let n = Net.n_nodes net in
  let committed = ref 0 and aborted = ref 0 in
  let latency = Stats.Hist.create () in
  let warmup_end = Sim.now sim + Sim.ms warmup_ms in
  let measure_end = warmup_end + Sim.ms measure_ms in
  let in_window () =
    let now = Sim.now sim in
    now > warmup_end && now <= measure_end
  in
  for node = 0 to n - 1 do
    let next = gen node in
    for _ = 1 to connections do
      let rec loop () =
        let txn = next () in
        submit ~node txn (fun (o : Engine.outcome) ->
            if in_window () then
              if o.Engine.committed then begin
                incr committed;
                Stats.Hist.add latency (float_of_int o.Engine.latency_us)
              end
              else incr aborted;
            loop ())
      in
      loop ()
    done
  done;
  Sim.run_until sim warmup_end;
  Obs.reset_all (Sim.obs sim);
  Sim.run_until sim measure_end;
  (!committed, !aborted, latency, Net.wan_bytes net)

let run_engine_with ~make ~topology ~gen ~connections ~warmup_ms ~measure_ms
    ~label () =
  let sim = Sim.create () in
  let rng = Gg_util.Rng.create 4242 in
  let net = Net.create sim ~rng ~topology () in
  let submit = make net in
  let committed, aborted, latency, wan =
    drive ~sim ~net ~submit ~gen ~connections ~warmup_ms ~measure_ms
  in
  Result.make ~label
    ~window_s:(float_of_int measure_ms /. 1000.0)
    ~committed ~aborted ~latency ~wan_bytes:wan

let run_engine (module E : Gg_engines.Engine.S) ?(config = Engine.default_config)
    ~topology ~gen ~connections ~warmup_ms ~measure_ms ~label () =
  run_engine_with
    ~make:(fun net ->
      let e = E.create net config in
      fun ~node txn cb -> E.submit e ~node txn cb)
    ~topology ~gen ~connections ~warmup_ms ~measure_ms ~label ()

type geo_extra = {
  phase_means : (string * (float * float * float * float * float)) list;
  epoch_cells : (int * Geogauss.Metrics.epoch_cell) list;
  fastpath : int * int * int;
      (* (speculations, confirms, mispredicts) summed over nodes; all
         zero unless Params.fastpath is on *)
}

(* JSONL trace export: one meta record, the buffered events (oldest
   first), then the periodic counter snapshots. Field order is fixed and
   every timestamp is simulated time, so identical seeded runs produce
   byte-identical files. *)
let write_trace ~path ~label ~params ~topology ~nodes ~warmup_ms ~measure_ms
    ~window_start_us obs snapshots =
  let events = Obs.events obs in
  let oc = open_out path in
  Jsonl.write_line oc
    (Jsonl.Obj
       [
         ("type", Jsonl.Str "meta");
         ("label", Jsonl.Str label);
         ("nodes", Jsonl.Int nodes);
         ( "regions",
           (* node -> region name, for cross-node WAN-hop attribution *)
           Jsonl.List
             (List.init nodes (fun i ->
                  Jsonl.Str (Topology.region_name topology i)))
         );
         ("epoch_us", Jsonl.Int params.Geogauss.Params.epoch_us);
         ("seed", Jsonl.Int params.Geogauss.Params.seed);
         ("warmup_ms", Jsonl.Int warmup_ms);
         ("measure_ms", Jsonl.Int measure_ms);
         ("window_start_us", Jsonl.Int window_start_us);
         ("events", Jsonl.Int (List.length events));
         ("dropped", Jsonl.Int (Obs.dropped_events obs));
       ]);
  List.iter
    (fun (e : Obs.Trace.event) ->
      Jsonl.write_line oc
        (Jsonl.Obj
           [
             ("type", Jsonl.Str "event");
             ("at", Jsonl.Int e.Obs.Trace.at);
             ("node", Jsonl.Int e.Obs.Trace.node);
             ("cat", Jsonl.Str e.Obs.Trace.cat);
             ("name", Jsonl.Str e.Obs.Trace.name);
             ("epoch", Jsonl.Int e.Obs.Trace.epoch);
             ("span", Jsonl.Int e.Obs.Trace.span);
             ("parent", Jsonl.Int e.Obs.Trace.parent);
             ("dur", Jsonl.Int e.Obs.Trace.dur);
             ("detail", Jsonl.Str e.Obs.Trace.detail);
           ]))
    events;
  List.iter
    (fun (at, counters) ->
      Jsonl.write_line oc
        (Jsonl.Obj
           [
             ("type", Jsonl.Str "snapshot");
             ("at", Jsonl.Int at);
             ( "counters",
               Jsonl.Obj (List.map (fun (k, v) -> (k, Jsonl.Int v)) counters) );
           ]))
    snapshots;
  close_out oc

(* Period of a traced run's counter snapshots. *)
let snapshot_every_ms = 100

let run_geogauss ?(params = Geogauss.Params.default) ?(connections = 256)
    ?req_gen ?trace_file ~topology ~load ~gen ~warmup_ms ~measure_ms
    ~label () =
  let cluster = Geogauss.Cluster.create ~params ~topology ~load () in
  let n = Topology.n_nodes topology in
  let obs = Geogauss.Cluster.obs cluster in
  if trace_file <> None then Obs.set_tracing obs true;
  let clients =
    List.init n (fun i ->
        let next =
          match req_gen with
          | Some rg -> rg i
          | None ->
            let next = gen i in
            fun () -> Geogauss.Txn.Op_txn (next ())
        in
        let cl =
          Geogauss.Client.create cluster ~home:i ~connections ~gen:next
        in
        Geogauss.Client.start cl;
        cl)
  in
  Geogauss.Cluster.run_for_ms cluster warmup_ms;
  (* One call clears every instrument, per-epoch table, client-side stat
     and the trace buffer — warm-up never leaks into the window. *)
  Obs.reset_all obs;
  let window_start_us = Sim.now (Geogauss.Cluster.sim cluster) in
  let snapshots = ref [] in
  (match trace_file with
  | Some _ ->
    let sim = Geogauss.Cluster.sim cluster in
    let measure_end = Sim.now sim + Sim.ms measure_ms in
    let rec snap () =
      snapshots := (Sim.now sim, Obs.counter_values obs) :: !snapshots;
      if Sim.now sim + Sim.ms snapshot_every_ms <= measure_end then
        Sim.schedule sim ~after:(Sim.ms snapshot_every_ms) snap
    in
    Sim.schedule sim ~after:(Sim.ms snapshot_every_ms) snap
  | None -> ());
  Geogauss.Cluster.run_for_ms cluster measure_ms;
  (* Final snapshot at the window end: the WAN report reads the closing
     counter values from here. *)
  (match trace_file with
  | Some _ ->
    let sim = Geogauss.Cluster.sim cluster in
    snapshots := (Sim.now sim, Obs.counter_values obs) :: !snapshots
  | None -> ());
  let committed = List.fold_left (fun a c -> a + Geogauss.Client.committed c) 0 clients in
  let aborted = List.fold_left (fun a c -> a + Geogauss.Client.aborted c) 0 clients in
  let latency =
    List.fold_left
      (fun acc c -> Stats.Hist.merge acc (Geogauss.Client.latency c))
      (Stats.Hist.create ()) clients
  in
  let wan = Net.wan_bytes (Geogauss.Cluster.net cluster) in
  let result =
    Result.make ~label
      ~window_s:(float_of_int measure_ms /. 1000.0)
      ~committed ~aborted ~latency ~wan_bytes:wan
  in
  let extra =
    {
      phase_means =
        List.init n (fun i ->
            ( Printf.sprintf "node%d" i,
              Geogauss.Metrics.phase_means_us (Geogauss.Cluster.metrics cluster i) ));
      epoch_cells =
        Geogauss.Metrics.epoch_cells (Geogauss.Cluster.metrics cluster 0);
      fastpath =
        List.fold_left
          (fun (s, c, m) i ->
            let mt = Geogauss.Cluster.metrics cluster i in
            ( s + Geogauss.Metrics.spec_count mt,
              c + Geogauss.Metrics.spec_confirms mt,
              m + Geogauss.Metrics.spec_mispredicts mt ))
          (0, 0, 0)
          (List.init n Fun.id);
    }
  in
  (match trace_file with
  | Some path ->
    write_trace ~path ~label ~params ~topology ~nodes:n ~warmup_ms ~measure_ms
      ~window_start_us obs (List.rev !snapshots)
  | None -> ());
  (result, extra)
