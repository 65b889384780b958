module Sim = Gg_sim.Sim

type sample = { at : int; latency_us : int }

type mode = Closed

type t = {
  cluster : Cluster.t;
  home : int;
  connections : int;
  gen : unit -> Txn.request;
  mutable running : bool;
  mutable committed : int;
  mutable aborted : int;
  mutable timeouts : int;
  mutable latency : Gg_util.Stats.Hist.t;
  mutable samples : sample list;  (* committed, newest first *)
  mutable started : bool;
}

(* End-of-warm-up reset, run by the [Obs.on_reset] hook. *)
let reset_stats t =
  t.committed <- 0;
  t.aborted <- 0;
  t.timeouts <- 0;
  t.latency <- Gg_util.Stats.Hist.create ();
  t.samples <- []

let create ?mode:(Closed = Closed) cluster ~home ~connections ~gen =
  let t =
    {
      cluster;
      home;
      connections;
      gen;
      running = false;
      committed = 0;
      aborted = 0;
      timeouts = 0;
      latency = Gg_util.Stats.Hist.create ();
      samples = [];
      started = false;
    }
  in
  Gg_obs.Obs.on_reset (Cluster.obs cluster) (fun () -> reset_stats t);
  t

let now t = Sim.now (Cluster.sim t.cluster)

(* One connection of the paper's closed loop. Each submission routes (a
   client re-routed away from its home region pays a WAN hop each way),
   draws the request, and ends exactly once — with its outcome, or as a
   timeout after [client_retry_us] if the serving node dies and never
   answers. Latency counts from submission. A commit submits the next
   request at once; an abort or a timeout backs off 1 ms first, which
   also keeps a failed node from drawing a same-instant resubmission
   loop. *)
let rec connection_loop t =
  if t.running then begin
    let sim = Cluster.sim t.cluster in
    let target = Cluster.route t.cluster ~preferred:t.home in
    let hop =
      if target = t.home then 0
      else
        Gg_sim.Topology.latency
          (Gg_sim.Net.topology (Cluster.net t.cluster))
          t.home target
    in
    let origin = now t in
    let req = t.gen () in
    let answered = ref false in
    let retry_us = (Cluster.params t.cluster).Params.client_retry_us in
    let timeout =
      Sim.schedule_timer sim ~after:retry_us (fun () ->
          if not !answered then begin
            answered := true;
            t.timeouts <- t.timeouts + 1;
            back_off t
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
          connection_loop t
        | Txn.Aborted _ ->
          t.aborted <- t.aborted + 1;
          back_off t
      end
    in
    Sim.schedule sim ~after:hop (fun () ->
        Cluster.submit t.cluster ~node:target req (fun outcome ->
            Sim.schedule sim ~after:hop (fun () -> respond outcome)))
  end

and back_off t =
  Sim.schedule (Cluster.sim t.cluster) ~after:1_000 (fun () -> connection_loop t)

let start t =
  if not t.started then begin
    t.started <- true;
    t.running <- true;
    for _ = 1 to t.connections do
      connection_loop t
    done
  end

let stop t = t.running <- false

let committed t = t.committed
let aborted t = t.aborted
let timeouts t = t.timeouts
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
