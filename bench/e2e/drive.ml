(* One run of one workload: set up a cluster, drive the closed loop
   through warm-up and the measured window, then stop the clients and
   quiesce. The loop mirrors [Gg_harness.Driver.run_geogauss] call for
   call (equiv_test.ml holds it to that), adding host-side clocks and
   counters around it. *)

module Cluster = Geogauss.Cluster
module Client = Geogauss.Client
module Metrics = Geogauss.Metrics
module Txn = Geogauss.Txn
module Obs = Gg_obs.Obs
module Net = Gg_sim.Net
module Sim = Gg_sim.Sim
module Batch = Gg_crdt.Writeset.Batch
module Hist = Gg_util.Stats.Hist

let now = Unix.gettimeofday

(* The traced run's view of the generator: every call is timed and its
   request kept, in call order, for the replay. *)
type probe = {
  mutable calls : int;
  mutable gen_s : float;
  mutable requests : Txn.request list;  (* newest first *)
}

let probe () = { calls = 0; gen_s = 0.0; requests = [] }

let timed_gen p next () =
  let t0 = now () in
  let req = next () in
  p.gen_s <- p.gen_s +. (now () -. t0);
  p.calls <- p.calls + 1;
  p.requests <- req :: p.requests;
  req

type t = {
  cluster : Cluster.t;
  result : Gg_harness.Result.t;
  setup_s : float;  (** [Cluster.create], which loads every replica *)
  run_s : float;  (** host time from cluster start to window end *)
  window_s : float;  (** host time of the window alone *)
  span_s : float;  (** host time from cluster start to quiesce end *)
  failed : int;  (** client timeouts plus constraint-violation aborts *)
  events : int;  (** simulator events in the window *)
  window_records : int;  (** merge records, all nodes, in the window *)
  messages : int;  (** network messages sent in the window *)
  bytes : int;  (** network bytes sent in the window, WAN and local *)
  minor_words : float;  (** window GC deltas *)
  major_words : float;
  major_collections : int;
  phases_ms : float * float * float * float;
      (** commit-weighted (exec, wait, merge, log) means, simulated *)
  spec : int;  (** fast-path speculations in the window *)
  mispredicts : int;
  encodes : int;  (** batch encodes from cluster start to quiesce end *)
  merged_records : int;  (** merge records, all nodes, same span *)
  digests : string list;  (** per replica, after quiesce *)
}

let sum_nodes cluster f =
  let acc = ref 0 in
  for i = 0 to Cluster.n_nodes cluster - 1 do
    acc := !acc + f (Cluster.metrics cluster i)
  done;
  !acc

let phase_means cluster =
  let n = Cluster.n_nodes cluster in
  let total = float_of_int (max 1 (sum_nodes cluster Metrics.committed)) in
  let e = ref 0.0 and w = ref 0.0 and m = ref 0.0 and l = ref 0.0 in
  for i = 0 to n - 1 do
    let mt = Cluster.metrics cluster i in
    let share = float_of_int (Metrics.committed mt) /. total in
    let _parse, exec, wait, merge, log = Metrics.phase_means_us mt in
    e := !e +. (share *. exec);
    w := !w +. (share *. wait);
    m := !m +. (share *. merge);
    l := !l +. (share *. log)
  done;
  (!e /. 1e3, !w /. 1e3, !m /. 1e3, !l /. 1e3)

let run ?probe (w : Workload.t) =
  let t0 = now () in
  let cluster =
    Cluster.create ~params:w.params ~topology:w.topology ~load:w.load ()
  in
  let t1 = now () in
  Batch.reset_encode_count ();
  let n = Cluster.n_nodes cluster in
  let obs = Cluster.obs cluster in
  let clients =
    List.init n (fun i ->
        let next = w.gen i in
        let next =
          match probe with None -> next | Some p -> timed_gen p next
        in
        let cl =
          Client.create ~mode:Client.Closed cluster ~home:i
            ~connections:w.connections ~gen:next
        in
        Client.start cl;
        cl)
  in
  Cluster.run_for_ms cluster w.warmup_ms;
  (* The reset below zeroes the merge counters; keep the warm-up part so
     the replay can be checked against the whole run. *)
  let merged_warmup = sum_nodes cluster Metrics.merged_records in
  let gc0 = Gc.quick_stat () in
  Obs.reset_all obs;
  let tw = now () in
  Cluster.run_for_ms cluster w.window_ms;
  let t2 = now () in
  let gc1 = Gc.quick_stat () in
  let sum f = List.fold_left (fun a c -> a + f c) 0 clients in
  let latency =
    List.fold_left
      (fun acc c -> Hist.merge acc (Client.latency c))
      (Hist.create ()) clients
  in
  let net = Cluster.net cluster in
  let result =
    Gg_harness.Result.make ~label:w.name
      ~window_s:(float_of_int w.window_ms /. 1000.0)
      ~committed:(sum Client.committed) ~aborted:(sum Client.aborted)
      ~latency ~wan_bytes:(Net.wan_bytes net)
  in
  let failed =
    sum Client.timeouts
    + sum_nodes cluster (fun m ->
          Metrics.aborted_by m (Txn.Constraint_violation ""))
  in
  let events = Sim.events (Cluster.sim cluster) in
  let window_records = sum_nodes cluster Metrics.merged_records in
  let messages = Net.sent_messages net and bytes = Net.sent_bytes net in
  let phases_ms = phase_means cluster in
  let spec = sum_nodes cluster Metrics.spec_count in
  let mispredicts = sum_nodes cluster Metrics.spec_mispredicts in
  List.iter Client.stop clients;
  Cluster.quiesce cluster;
  let t3 = now () in
  {
    cluster;
    result;
    setup_s = t1 -. t0;
    run_s = t2 -. t1;
    window_s = t2 -. tw;
    span_s = t3 -. t1;
    failed;
    events;
    window_records;
    messages;
    bytes;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    major_words = gc1.Gc.major_words -. gc0.Gc.major_words;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    phases_ms;
    spec;
    mispredicts;
    encodes = Batch.encode_count ();
    merged_records = merged_warmup + sum_nodes cluster Metrics.merged_records;
    digests = Cluster.digests cluster;
  }

let per d x = if d = 0 then 0.0 else x /. float_of_int d

(* The run's end-to-end metrics, then the per-layer counters that need no
   replay. Simulated metrics come from the window; host time from cluster
   start to window end, over warm-up plus window. The heap peak is read
   now, so call this before anything else allocates. *)
let metrics (w : Workload.t) d =
  let r = d.result in
  let finished = r.committed + r.aborted in
  let window_sim_s = float_of_int w.window_ms /. 1000.0 in
  let heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let exec, wait, merge, log = d.phases_ms in
  let epochs =
    w.window_ms * 1000 / w.params.Geogauss.Params.epoch_us
    * Cluster.n_nodes d.cluster
  in
  [
    ("sim_tput_txn_s", r.tput);
    ("sim_p50_ms", r.p50_ms);
    ("sim_p99_ms", r.p99_ms);
    ("commit_ratio", per finished (float_of_int r.committed));
    ("wan_kb_per_txn", r.wan_kb_per_txn);
    ("host_s_per_sim_s", d.run_s /. Workload.sim_s w);
    ("setup_s", d.setup_s);
    ( "heap_peak_mb",
      float_of_int (heap_words * (Sys.word_size / 8)) /. 1048576.0 );
    ("sim.events_per_sim_s", float_of_int d.events /. window_sim_s);
    ("sim.host_ns_per_event", 1e9 *. per d.events d.window_s);
    ("net.messages_per_txn", per finished (float_of_int d.messages));
    ("net.bytes_per_txn", per finished (float_of_int d.bytes));
    ( "epoch_merge.records_per_sim_s",
      float_of_int d.window_records /. window_sim_s );
    ("gc.minor_words_per_sim_s", d.minor_words /. window_sim_s);
    ("gc.major_words_per_sim_s", d.major_words /. window_sim_s);
    ( "gc.major_collections_per_sim_s",
      float_of_int d.major_collections /. window_sim_s );
    ("fastpath.spec_per_epoch", per epochs (float_of_int d.spec));
    ("fastpath.mispredict_rate", per d.spec (float_of_int d.mispredicts));
    ("phase.exec_ms", exec);
    ("phase.wait_ms", wait);
    ("phase.merge_ms", merge);
    ("phase.log_ms", log);
  ]
