module Rng = Gg_util.Rng
module Params = Geogauss.Params
module Fault = Gg_sim.Fault
module Arrival = Gg_workload.Arrival

type workload = Ycsb_mc | Ycsb_hc | Tpcc | Hotkey | Social | Scan | Secidx

let workload_to_string = function
  | Ycsb_mc -> "ycsb-mc"
  | Ycsb_hc -> "ycsb-hc"
  | Tpcc -> "tpcc"
  | Hotkey -> "hotkey"
  | Social -> "social"
  | Scan -> "scan"
  | Secidx -> "secidx"

type t = {
  seed : int;
  nodes : int;
  workload : workload;
  variant : Params.variant;
  isolation : Params.isolation;
  ft : Params.ft_mode;
  epoch_ms : int;
  duration_ms : int;
  connections : int;  (* per node *)
  loss : float;
  dup : float;
  reorder : float;
  jitter : float;
  faults : Fault.event list;
  corruption : (int * int) option;
  corrupt_frac : float;
      (* probability a binary batch frame is truncated in flight.
         Pinned, not drawn: probability 0 means the network takes no
         corruption coin-flips, so existing seeds are unperturbed. *)
  merge_level : Params.merge_level;
      (* conflict granularity of the epoch merge. Never drawn from the
         seed — pinned via Checker.check
         ?merge_level / with_merge_level. *)
  arrival : Gg_workload.Arrival.t option;
      (* open-loop arrival curve; None = the closed loop. Drawn LAST so
         the coin-flips cannot perturb any knob above. *)
  fastpath : bool;
      (* clock-assisted speculative sealing (the eocc engine). Never
         drawn from the seed — pinned via
         with_fastpath, so existing reproducer lines replay unchanged. *)
  clock_skew_ms : int;
      (* bounded clock-skew budget for fastpath runs. Pinned alongside
         fastpath; 0 keeps perfectly synchronized clocks. *)
}

(* Crash/recover timing must respect the protocol's own clocks: the
   failure detector needs ~500 ms of EOF silence before it removes a
   node, and a recovery only works once that removal has committed —
   recovering earlier leaves the node in the view but inactive, and its
   (deduplicated) add proposal is a no-op. After the recover call the
   run needs roughly the re-join margin (~600 ms) plus the state
   transfer before the node contributes again. *)
let crash_detect_ms = 750
let rejoin_ms = 1_000

let gen_faults rng ~nodes ~duration_ms =
  let events = ref [] in
  let push at_ms action = events := { Fault.at_ms; action } :: !events in
  (* At most one node down at a time: a second concurrent crash of a
     3-node cluster would lose the Raft majority and stall by design. *)
  let n_cycles =
    if Rng.chance rng 0.55 then 1 + (if Rng.chance rng 0.25 then 1 else 0)
    else 0
  in
  let horizon = ref 200 in
  for _ = 1 to n_cycles do
    let crash_at = !horizon + Rng.int_in rng 50 400 in
    let recover_at = crash_at + crash_detect_ms + Rng.int_in rng 0 250 in
    if recover_at + rejoin_ms < duration_ms then begin
      let victim = Rng.int rng nodes in
      push crash_at (Fault.Crash victim);
      (* Sometimes the node never comes back: survivors must still
         converge among themselves. *)
      if Rng.chance rng 0.75 then begin
        push recover_at (Fault.Recover victim);
        horizon := recover_at + rejoin_ms
      end
      else horizon := duration_ms
    end
  done;
  (* Network-knob bursts: a loss or jitter spike that later subsides.
     Sustained loss is survivable thanks to the stall-repair path, but
     bursts keep most of the run productive. *)
  let n_bursts = Rng.int rng 3 in
  for _ = 1 to n_bursts do
    let at = Rng.int_in rng 100 (max 200 (duration_ms - 400)) in
    let until = at + Rng.int_in rng 100 300 in
    match Rng.int rng 3 with
    | 0 ->
      push at (Fault.Loss (0.05 +. Rng.float rng 0.2));
      push until (Fault.Loss 0.0)
    | 1 ->
      push at (Fault.Jitter (0.5 +. Rng.float rng 1.5));
      push until (Fault.Jitter 0.05)
    | _ ->
      push at (Fault.Dup (0.1 +. Rng.float rng 0.3));
      push until (Fault.Dup 0.0)
  done;
  List.stable_sort (fun a b -> compare a.Fault.at_ms b.Fault.at_ms) !events

(* Open-loop curves sized for checker runs: peaks a small cluster can
   mostly (but not always) serve, periods/windows that fit inside a
   1-5 s scenario so the curve actually bends during the run. *)
let draw_arrival rng ~duration_ms =
  let peak_tps = float_of_int (Rng.int_in rng 200 800) in
  let shape =
    match Rng.int rng 3 with
    | 0 -> Arrival.Constant
    | 1 ->
      Arrival.Diurnal
        {
          period_ms = Rng.int_in rng 400 1_500;
          trough = 0.1 +. Rng.float rng 0.5;
        }
    | _ ->
      Arrival.Flash
        {
          at_ms = Rng.int_in rng 200 (max 300 (duration_ms / 2));
          dur_ms = Rng.int_in rng 200 600;
          mult = 3.0 +. Rng.float rng 7.0;
        }
  in
  Arrival.make ~shape ~peak_tps

let generate ?variant ?isolation ?ft ~fast seed =
  let rng = Rng.create (0x5eed + (seed * 0x9e3779b9)) in
  let variant =
    match variant with
    | Some v -> v
    | None -> (
      match Rng.int rng 10 with
      | 0 | 1 -> Params.Sync_exec
      | 2 -> Params.Async_merge
      | _ -> Params.Optimistic)
  in
  let isolation =
    match isolation with
    | Some i -> i
    | None -> (
      match Rng.int rng 4 with
      | 0 -> Params.RC
      | 1 -> Params.RR
      | 2 -> Params.SI
      | _ -> Params.SSI)
  in
  let ft =
    match ft with
    | Some f -> f
    | None -> (
      match Rng.int rng 4 with
      | 0 -> Params.Ft_none
      | 1 -> Params.Ft_local_backup
      | 2 -> Params.Ft_remote_backup
      | _ -> Params.Ft_raft)
  in
  let nodes = if fast || Rng.chance rng 0.8 then 3 else 5 in
  let epoch_ms = [| 5; 10; 20 |].(Rng.int rng 3) in
  let duration_ms =
    if fast then 1_200 + Rng.int rng 1_400 else 2_500 + Rng.int rng 2_000
  in
  let workload =
    match Rng.int rng 8 with
    | 0 -> Ycsb_hc
    | 1 -> Tpcc
    | 2 -> Hotkey
    | 3 -> Social
    | 4 -> Scan
    | 5 -> Secidx
    | _ -> Ycsb_mc
  in
  let connections = 2 + Rng.int rng 4 in
  (* Arrival is the LAST draw of a scenario: a freshly taken coin-flip
     cannot shift any knob above it, only add the open-loop curve. *)
  let finish s =
    if Rng.chance rng 0.3 then
      { s with arrival = Some (draw_arrival rng ~duration_ms:s.duration_ms) }
    else s
  in
  finish
  @@
  match variant with
  | Params.Async_merge ->
    (* GeoG-A is coordination-free gossip: a lost update is lost forever
       (no EOFs, no epochs to repair), and a recovering node never
       catches up. Restrict its scenarios to the faults it tolerates —
       duplication, reordering, jitter — and let the checker fall back
       to the eventual-convergence oracle. *)
    {
      seed;
      nodes;
      workload;
      variant;
      isolation = Params.RC;
      ft = Params.Ft_none;
      epoch_ms;
      duration_ms;
      connections;
      loss = 0.0;
      dup = Rng.float rng 0.3;
      reorder = Rng.float rng 0.3;
      jitter = Rng.float rng 0.3;
      faults = [];
      corruption = None;
      corrupt_frac = 0.0;
      merge_level = Params.Row;
      arrival = None;
      fastpath = false;
      clock_skew_ms = 0;
    }
  | Params.Optimistic | Params.Sync_exec ->
    let faults = gen_faults rng ~nodes ~duration_ms in
    {
      seed;
      nodes;
      workload;
      variant;
      isolation;
      ft;
      epoch_ms;
      duration_ms;
      connections;
      loss = (if Rng.chance rng 0.5 then Rng.float rng 0.04 else 0.0);
      dup = (if Rng.chance rng 0.5 then Rng.float rng 0.2 else 0.0);
      reorder = (if Rng.chance rng 0.5 then Rng.float rng 0.2 else 0.0);
      jitter = Rng.float rng 0.2;
      faults;
      corruption = None;
      corrupt_frac = 0.0;
      merge_level = Params.Row;
      arrival = None;
      fastpath = false;
      clock_skew_ms = 0;
    }

(* Pin column-level merge onto a drawn scenario. GeoG-A is coerced to
   the full engine: gossip re-applies whole row images, so there is no
   column kernel to exercise there (and {!Params.effective_merge_level}
   would silently fall back to Row). *)
let with_merge_level s level =
  if level = Params.Row then s
  else
    {
      s with
      merge_level = level;
      variant =
        (match s.variant with
        | Params.Async_merge -> Params.Optimistic
        | v -> v);
    }

(* Pin the clock-assisted fast path (engine=eocc) onto a drawn scenario.
   Like the other pins this never touches the seed's own draw stream: the
   skew-burst schedule comes from a fresh Rng salted differently from
   {!generate}'s, so existing reproducer lines replay byte-identically.
   The fast path refines the Optimistic engine, so GeoG-S / GeoG-A draws
   are coerced (same discipline as {!with_merge_level}). Bursts step one
   node's clock by up to the skew budget mid-run; {!Gg_sim.Clock} clamps
   the result to the bound, so the bounded-skew invariant survives the
   fault and the watermark fallback absorbs the surprise. *)
let with_fastpath s ~clock_skew_ms =
  let clock_skew_ms = max 0 clock_skew_ms in
  let rng = Rng.create (0x5c3a + (s.seed * 0x9e3779b9)) in
  let skew_faults =
    if clock_skew_ms = 0 then []
    else
      List.init (Rng.int rng 3) (fun _ ->
          let at_ms = Rng.int_in rng 200 (max 300 (s.duration_ms - 200)) in
          let node = Rng.int rng s.nodes in
          let magnitude_ms = Rng.int_in rng 1 (max 2 clock_skew_ms) in
          let delta_us =
            magnitude_ms * 1_000 * (if Rng.chance rng 0.5 then 1 else -1)
          in
          { Fault.at_ms; action = Fault.Skew_step { node; delta_us } })
  in
  {
    s with
    fastpath = true;
    clock_skew_ms;
    variant = Params.Optimistic;
    faults =
      List.stable_sort
        (fun a b -> compare a.Fault.at_ms b.Fault.at_ms)
        (s.faults @ skew_faults);
  }

let params s =
  {
    Params.default with
    Params.epoch_us = s.epoch_ms * 1_000;
    isolation = s.isolation;
    variant = s.variant;
    ft = s.ft;
    seed = 42 + s.seed;
    (* Faulty runs stall for up to a detection window; clients should
       re-route well before the run ends. *)
    client_retry_us = 900_000;
    merge_level = s.merge_level;
    fastpath = s.fastpath;
    clock_skew_us = s.clock_skew_ms * 1_000;
  }

let to_string s =
  Printf.sprintf
    "seed=%d engine=%s iso=%s ft=%s wl=%s nodes=%d epoch_ms=%d dur_ms=%d \
     conn=%d loss=%.3f dup=%.3f reorder=%.3f jitter=%.3f faults=%s%s"
    s.seed
    (Params.variant_to_string s.variant)
    (Params.isolation_to_string s.isolation)
    (Params.ft_to_string s.ft)
    (workload_to_string s.workload)
    s.nodes s.epoch_ms s.duration_ms s.connections s.loss s.dup s.reorder
    s.jitter
    (Fault.schedule_to_string s.faults)
    (match s.corruption with
    | None -> ""
    | Some (node, at_ms) -> Printf.sprintf " corrupt=%d@%dms" node at_ms)
  (* the non-default suffixes print only when set, so every existing
     reproducer line is byte-identical *)
  ^ (if s.corrupt_frac = 0.0 then ""
     else Printf.sprintf " corrupt_frac=%.3f" s.corrupt_frac)
  ^ (match s.merge_level with
    | Params.Row -> ""
    | Params.Column -> " merge_level=column")
  ^ (if not s.fastpath then ""
     else Printf.sprintf " fastpath=eocc clock_skew_ms=%d" s.clock_skew_ms)
  ^ (match s.arrival with
    | None -> ""
    | Some a -> Printf.sprintf " arrival=%s" (Arrival.to_string a))
