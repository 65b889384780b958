module Rng = Gg_util.Rng

(* Scale factor for the fixed-point EWMA state of the one-way delay
   estimator: keeps sub-µs precision without floats (float arithmetic
   would still be deterministic, but integer state keeps the estimator
   trivially byte-stable across platforms). *)
let ewma_scale = 16

type t = {
  topology : Topology.t;
  bound_us : int;
  base_us : int array;  (* per-node fixed offset component *)
  drift_ppm : int array;  (* per-node rate error, parts per million *)
  step_us : int array;  (* injected skew-burst steps (fault schedules) *)
  owd_scaled : int array array;
      (* [src_region].[dst_region] one-way delay EWMA, x ewma_scale *)
  hwm_stamp : int array array;  (* [dst].[src] highest sender stamp seen *)
  hwm_at : int array array;  (* [dst].[src] sim arrival time of that stamp *)
}

(* Drift magnitude: commodity crystal oscillators sit in the tens of ppm;
   NTP-disciplined clocks well under 100. 200 ppm is a pessimistic cap —
   2 ms of wander over a 10 s run. *)
let max_drift_ppm = 200

let create ~seed ~topology ~bound_us =
  let n = Topology.n_nodes topology in
  let r = Topology.n_regions topology in
  let rng = Rng.create (0x10cc + (seed * 0x9e3779b9)) in
  let half = max 0 (bound_us / 2) in
  let base_us =
    Array.init n (fun _ -> if half = 0 then 0 else Rng.int_in rng (-half) half)
  in
  let drift_ppm =
    Array.init n (fun _ ->
        if bound_us = 0 then 0
        else Rng.int_in rng (-max_drift_ppm) max_drift_ppm)
  in
  let owd_scaled =
    Array.init r (fun src ->
        Array.init r (fun dst ->
            topology.Topology.region_latency_us.(src).(dst) * ewma_scale))
  in
  {
    topology;
    bound_us = max 0 bound_us;
    base_us;
    drift_ppm;
    step_us = Array.make n 0;
    owd_scaled;
    hwm_stamp = Array.make_matrix n n min_int;
    hwm_at = Array.make_matrix n n min_int;
  }

let offset_us t ~node ~at =
  if t.bound_us = 0 then 0
  else begin
    (* Drift accumulates from t=0; the total offset is clamped to the
       configured bound — the contract an external time service would
       enforce. *)
    let o =
      t.base_us.(node)
      + (t.drift_ppm.(node) * max 0 at / 1_000_000)
      + t.step_us.(node)
    in
    if o > t.bound_us then t.bound_us
    else if o < -t.bound_us then -t.bound_us
    else o
  end

let read t ~node ~at = at + offset_us t ~node ~at

let inject_step t ~node ~delta_us =
  t.step_us.(node) <- t.step_us.(node) + delta_us

(* --- one-way delay estimator (per directed region pair) --- *)

let owd_us t ~src ~dst =
  let rs = Topology.region_of t.topology src in
  let rd = Topology.region_of t.topology dst in
  t.owd_scaled.(rs).(rd) / ewma_scale

let observe_delay t ~src ~dst ~sample_us =
  let rs = Topology.region_of t.topology src in
  let rd = Topology.region_of t.topology dst in
  let s = max 0 sample_us * ewma_scale in
  let e = t.owd_scaled.(rs).(rd) in
  (* EWMA with alpha = 1/8: converges in a few tens of samples, damps
     per-message jitter. *)
  t.owd_scaled.(rs).(rd) <- e + ((s - e) / 8)

(* --- per-sender watermark --- *)

let note_stamp t ~src ~dst ~stamp ~at =
  (* Monotonic per sender: csn timestamps are monotone at the sender, so
     a lower stamp is a reordered or duplicated delivery and never moves
     the watermark backwards. *)
  if stamp > t.hwm_stamp.(dst).(src) then begin
    t.hwm_stamp.(dst).(src) <- stamp;
    t.hwm_at.(dst).(src) <- at
  end

let hwm t ~src ~dst =
  let s = t.hwm_stamp.(dst).(src) in
  if s = min_int then None else Some (s, t.hwm_at.(dst).(src))

let deadline t ~src ~dst ~boundary_us ~margin_us =
  match hwm t ~src ~dst with
  | Some (s, a) ->
    (* The sender's clock read [s] when the message that arrived here at
       [a] was stamped. It advances at ~1x real time, so it passes the
       epoch boundary (and seals) about [boundary - s] after that send —
       and anything it stamped before the boundary rides the same pipe
       the watermark message did, landing ~(boundary - s) after [a]. The
       sender-clock terms cancel, so the deadline is skew-independent;
       [margin_us] absorbs jitter and estimator error. *)
    a + max 0 (boundary_us - s) + margin_us
  | None ->
    (* No traffic from this sender yet: fall back to the worst case over
       the skew bound plus the topology-seeded delay estimate. *)
    boundary_us + t.bound_us + owd_us t ~src ~dst + margin_us
