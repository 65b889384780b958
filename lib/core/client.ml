module Sim = Gg_sim.Sim
module Arrival = Gg_workload.Arrival
module Rng = Gg_util.Rng

type sample = { at : int; latency_us : int }

type mode = Closed | Open of { arrival : Arrival.t; queue_cap : int }

type t = {
  cluster : Cluster.t;
  home : int;
  connections : int;
  mode : mode;
  gen : unit -> Txn.request;
  rng : Rng.t;  (* open-loop arrival draws; untouched in closed mode *)
  queue : int Gg_util.Fifo.t;  (* waiting arrivals' timestamps *)
  mutable in_flight : int;
  mutable running : bool;
  mutable committed : int;
  mutable aborted : int;
  mutable timeouts : int;
  mutable offered : int;  (* open-loop: arrivals admitted by thinning *)
  mutable shed : int;  (* open-loop: arrivals dropped, queue full *)
  mutable latency : Gg_util.Stats.Hist.t;
  mutable samples : sample list;  (* committed, newest first *)
  mutable started : bool;
}

(* End-of-warm-up reset: statistics only. The queue and the in-flight
   count are simulation STATE, not statistics — wiping them would
   teleport queued work away and let the measured window start from an
   artificially empty system. A transaction that arrived during warm-up
   but commits after the reset counts with its full latency (queue wait
   included): that backlog is precisely what an overloaded open-loop
   system carries into any measurement window. *)
let reset_stats t =
  t.committed <- 0;
  t.aborted <- 0;
  t.timeouts <- 0;
  t.offered <- 0;
  t.shed <- 0;
  t.latency <- Gg_util.Stats.Hist.create ();
  t.samples <- []

let create ?(mode = Closed) cluster ~home ~connections ~gen =
  let t =
    {
      cluster;
      home;
      connections;
      mode;
      gen;
      rng =
        Rng.create
          ((Cluster.params cluster).Params.seed
          lxor (0x09E2 + (home * 7919)));
      queue = Gg_util.Fifo.create ~filler:0;
      in_flight = 0;
      running = false;
      committed = 0;
      aborted = 0;
      timeouts = 0;
      offered = 0;
      shed = 0;
      latency = Gg_util.Stats.Hist.create ();
      samples = [];
      started = false;
    }
  in
  Gg_obs.Obs.on_reset (Cluster.obs cluster) (fun () -> reset_stats t);
  t

let now t = Sim.now (Cluster.sim t.cluster)

(* One submission over one connection: route (a client re-routed away
   from its home region pays a WAN hop each way), draw the request, and
   end it exactly once — with its outcome, or as [`Timed_out] after
   [client_retry_us] if the serving node dies and never answers. Commit
   latency counts from [origin]. *)
let submit t ~origin k =
  let target = Cluster.route t.cluster ~preferred:t.home in
  let sim = Cluster.sim t.cluster in
  let hop =
    if target = t.home then 0
    else
      Gg_sim.Topology.latency
        (Gg_sim.Net.topology (Cluster.net t.cluster))
        t.home target
  in
  let req = t.gen () in
  let answered = ref false in
  let retry_us = (Cluster.params t.cluster).Params.client_retry_us in
  let timeout =
    Sim.schedule_timer sim ~after:retry_us (fun () ->
        if not !answered then begin
          answered := true;
          t.timeouts <- t.timeouts + 1;
          k `Timed_out
        end)
  in
  let respond outcome =
    if not !answered then begin
      answered := true;
      Sim.cancel sim timeout;
      match outcome with
      | Txn.Committed _ ->
        let latency_us = now t - origin in
        t.committed <- t.committed + 1;
        Gg_util.Stats.Hist.add t.latency (float_of_int latency_us);
        t.samples <- { at = now t; latency_us } :: t.samples;
        k `Committed
      | Txn.Aborted _ ->
        t.aborted <- t.aborted + 1;
        k `Aborted
    end
  in
  Sim.schedule sim ~after:hop (fun () ->
      Cluster.submit t.cluster ~node:target req (fun outcome ->
          Sim.schedule sim ~after:hop (fun () -> respond outcome)))

(* --- closed loop (the paper's serving model) -------------------------- *)

(* Latency counts from submission. A commit submits the next request at
   once; an abort or a timeout backs off 1 ms first, which also keeps a
   failed node from drawing a same-instant resubmission loop. *)
let rec connection_loop t =
  if t.running then
    submit t ~origin:(now t) (function
      | `Committed -> connection_loop t
      | `Aborted | `Timed_out ->
        Sim.schedule (Cluster.sim t.cluster) ~after:1_000 (fun () ->
            connection_loop t))

(* --- open loop -------------------------------------------------------- *)

(* Unlike the closed loop the latency clock starts at ARRIVAL, not
   submission — queueing delay is part of what an open-loop user
   experiences — and nothing retries: an abort or timeout frees the
   connection for the next arrival. Already-admitted arrivals drain even
   after [stop]. *)
let rec dispatch t ~arrived =
  t.in_flight <- t.in_flight + 1;
  submit t ~origin:arrived (fun _ ->
      t.in_flight <- t.in_flight - 1;
      if not (Gg_util.Fifo.is_empty t.queue) then
        dispatch t ~arrived:(Gg_util.Fifo.pop t.queue))

(* Nonhomogeneous Poisson arrivals by Lewis thinning: draw exponential
   gaps at the PEAK rate, then accept each candidate with probability
   rate(now)/peak. Both draws come from the client's own rng, so the
   arrival curve is a pure function of (seed, home) — byte-determinism
   holds whatever the cluster does in between. *)
let rec arrival_loop t ~arrival ~queue_cap =
  if t.running then begin
    let sim = Cluster.sim t.cluster in
    let peak = Arrival.peak_tps arrival in
    let gap_us = Rng.exponential t.rng (1e6 /. peak) in
    let gap_us = max 1 (int_of_float gap_us) in
    Sim.schedule sim ~after:gap_us (fun () ->
        if t.running then begin
          let rate = Arrival.rate_at arrival ~at_us:(now t) in
          if Rng.chance t.rng (rate /. peak) then begin
            t.offered <- t.offered + 1;
            if t.in_flight < t.connections then dispatch t ~arrived:(now t)
            else if Gg_util.Fifo.length t.queue < queue_cap then
              Gg_util.Fifo.push t.queue (now t)
            else t.shed <- t.shed + 1
          end;
          arrival_loop t ~arrival ~queue_cap
        end)
  end

let start t =
  match t.mode with
  | Closed ->
    if not t.started then begin
      t.started <- true;
      t.running <- true;
      for _ = 1 to t.connections do
        connection_loop t
      done
    end
    else t.running <- true
  | Open { arrival; queue_cap } ->
    if not t.running then begin
      t.started <- true;
      t.running <- true;
      arrival_loop t ~arrival ~queue_cap
    end

let stop t = t.running <- false

let committed t = t.committed
let aborted t = t.aborted
let timeouts t = t.timeouts
let offered t = t.offered
let shed t = t.shed
let queued t = Gg_util.Fifo.length t.queue
let latency t = t.latency

let timeline t ~bucket_us =
  let samples = List.rev t.samples in
  let horizon = now t in
  let n_buckets = (horizon / bucket_us) + 1 in
  let counts = Array.make n_buckets 0 in
  let lat_sums = Array.make n_buckets 0.0 in
  List.iter
    (fun s ->
      let b = s.at / bucket_us in
      if b >= 0 && b < n_buckets then begin
        counts.(b) <- counts.(b) + 1;
        lat_sums.(b) <- lat_sums.(b) +. float_of_int s.latency_us
      end)
    samples;
  List.init n_buckets (fun b ->
      let tput = float_of_int counts.(b) /. (float_of_int bucket_us /. 1e6) in
      let lat_ms =
        if counts.(b) = 0 then 0.0
        else lat_sums.(b) /. float_of_int counts.(b) /. 1000.0
      in
      (float_of_int (b * bucket_us) /. 1e6, tput, lat_ms))
