module Clock = Gg_sim.Clock
module Obs = Gg_obs.Obs
module Writeset = Gg_crdt.Writeset
module Meta = Gg_crdt.Meta
module Csn = Gg_storage.Csn

(* The speculative merge armed for one epoch. *)
type armed = {
  e : int;
  at : int;  (* sim time the charge began; also the WAL prelog instant *)
  duration : int;  (* charged merge duration *)
  keys : int list;  (* speculated set: sorted packed csns *)
  span : int;  (* causal span of the speculative merge *)
}

type t = {
  clock : Clock.t;  (* shared by the cluster; this node writes row [node] *)
  obs : Obs.t;
  metrics : Metrics.t;
  node : int;
  epoch_us : int;
  margin_us : int;
  mutable armed : armed option;
  mutable wake_at : int;  (* earliest pending wakeup; max_int = none *)
}

type plan = Speculate | Wake_at of int | Nothing

type settled =
  | Confirmed of { start : int; duration : int; span : int; prelog : int }
  | Mispredicted of { prelog : int }
  | Not_armed

let create (params : Params.t) ~clock ~obs ~metrics ~node =
  if not params.Params.fastpath then None
  else
    let { Params.log_fsync_us; merge_base_us; _ } = params.Params.cost in
    Some
      {
        clock;
        obs;
        metrics;
        node;
        epoch_us = params.Params.epoch_us;
        (* Negative lead on the deadlines: fire early enough that the
           merge charge and the WAL group commit finish as the
           all-arrived signal lands. A larger lead only raises the
           mispredict rate, never breaks safety. *)
        margin_us = -(log_fsync_us + merge_base_us + 300);
        armed = None;
        wake_at = max_int;
      }

let reset t =
  t.armed <- None;
  t.wake_at <- max_int

(* Commit timestamps are stamped from the sender's (skewed) local clock,
   which is exactly what the deadline extrapolation cancels out. *)
let observe t ~src ~now txns =
  List.iter
    (fun (ws : Writeset.t) ->
      let ts = ws.Writeset.meta.Meta.csn.Csn.ts in
      Clock.note_stamp t.clock ~src ~dst:t.node ~stamp:ts ~at:now;
      Clock.observe_delay t.clock ~src ~dst:t.node ~sample_us:(now - ts))
    txns

let plan t ~e ~now ~incomplete =
  match t.armed with
  | Some a when a.e = e -> Nothing
  | _ when incomplete = [] -> Nothing (* merge-ready: settles right away *)
  | _ ->
    let boundary_us = (e + 1) * t.epoch_us in
    let latest =
      List.fold_left
        (fun latest peer ->
          let d =
            Clock.deadline t.clock ~src:peer ~dst:t.node ~boundary_us
              ~margin_us:t.margin_us
          in
          if d <= now then latest else max latest d)
        min_int incomplete
    in
    if latest = min_int then Speculate
    else if latest < t.wake_at then begin
      (* One armed wakeup at the latest outstanding deadline; arriving
         messages re-plan sooner anyway. *)
      t.wake_at <- latest;
      Wake_at latest
    end
    else Nothing

let woke t ~at = if t.wake_at = at then t.wake_at <- max_int

let arm t ~e ~now ~duration ~n_records ~keys =
  let span = Obs.new_span t.obs ~node:t.node in
  t.armed <- Some { e; at = now; duration; keys; span };
  Metrics.record_spec t.metrics;
  if Obs.tracing t.obs then
    Obs.emit t.obs ~node:t.node ~epoch:e ~span ~dur:duration ~cat:"epoch"
      "merge.spec"
      ~detail:(Printf.sprintf "txns=%d records=%d" (List.length keys) n_records)

let settle t ~e ~now ~keys =
  match t.armed with
  | Some a when a.e = e ->
    t.armed <- None;
    if keys = a.keys then begin
      (* Only the residual of the charge (if any) remains; the start is
         back-dated by it even when the charge finished early. *)
      Metrics.record_spec_confirm t.metrics;
      let residual = max 0 (a.at + a.duration - now) in
      if Obs.tracing t.obs then
        Obs.emit t.obs ~node:t.node ~epoch:e ~span:a.span ~dur:residual
          ~cat:"epoch" "merge.confirm"
          ~detail:
            (Printf.sprintf "txns=%d residual=%d" (List.length keys) residual);
      let start = now + residual - a.duration in
      Confirmed { start; duration = a.duration; span = a.span; prelog = a.at }
    end
    else begin
      Metrics.record_spec_mispredict t.metrics;
      if Obs.tracing t.obs then
        Obs.emit t.obs ~node:t.node ~epoch:e ~span:a.span ~cat:"epoch"
          "merge.mispredict"
          ~detail:
            (Printf.sprintf "speculated=%d actual=%d" (List.length a.keys)
               (List.length keys));
      Mispredicted { prelog = a.at }
    end
  | _ -> Not_armed
