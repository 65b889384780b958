module Sim = Gg_sim.Sim
module Net = Gg_sim.Net
module Obs = Gg_obs.Obs
module Topology = Gg_sim.Topology
module Db = Gg_storage.Db
module Raft = Gg_raft.Raft

type view = { from_epoch : int; members : int list }

type pending_transfer = { donor : int; target : int; rejoin_epoch : int }

type t = {
  sim : Sim.t;
  net : Net.t;
  params : Params.t;
  topology : Topology.t;
  backup : Backup.t;
  env : Node.env;
  nodes : Node.t array;
  raft : Raft.t;
  mutable views : view list;  (* newest first *)
  applied_proposals : (string, unit) Hashtbl.t;
  proposed : (string, unit) Hashtbl.t;
  mutable pending_transfers : pending_transfer list;
  mutable last_view_change : int;
  mutable snapshot_hooks : (node:int -> lsn:int -> unit) list;
      (* newest first; run before transfer bookkeeping *)
  mutable commit_hooks : (Txn.t -> unit) list;  (* newest first *)
}

let members_at_views views e =
  let rec go = function
    | [] -> []
    | v :: rest -> if e >= v.from_epoch then v.members else go rest
  in
  go views

let epoch_us t = t.params.Params.epoch_us
let current_epoch t = Sim.now t.sim / epoch_us t

(* Nearest live, active member that could donate a state snapshot to
   [target]. An up-but-inactive node (e.g. one whose own re-join is
   still pending) must not donate: its snapshot is stale. *)
let pick_donor t ~target =
  List.fold_left
    (fun best m ->
      if
        m = target
        || Net.is_down t.net m
        || not (Node.active t.nodes.(m))
      then best
      else
        match best with
        | None -> Some m
        | Some b ->
          if Topology.latency t.topology target m < Topology.latency t.topology target b
          then Some m
          else best)
    None
    (List.hd t.views).members

(* --- membership view changes, committed through Raft --- *)

let rec apply_view_change t data =
  if not (Hashtbl.mem t.applied_proposals data) then begin
    Hashtbl.replace t.applied_proposals data ();
    t.last_view_change <- Sim.now t.sim;
    Obs.emit (Sim.obs t.sim) ~cat:"cluster" "view.change" ~detail:data;
    match String.split_on_char ':' data with
    (* The optional trailing field is a proposal nonce (the epoch at
       proposal time): it keeps repeated removals of the same node
       distinct when the node made no progress in between (e.g. a
       re-join whose state transfer never completed). *)
    | [ "remove"; p; e ] | [ "remove"; p; e; _ ] ->
      let p = int_of_string p and e = int_of_string e in
      let current = (List.hd t.views).members in
      if List.mem p current then begin
        t.views <-
          { from_epoch = e + 1; members = List.filter (fun m -> m <> p) current }
          :: t.views;
        (* Survivors recover any of the failed node's sealed batches they
           are missing from its backup server (one regional round trip),
           then re-evaluate merges. *)
        Array.iter
          (fun node ->
            let id = Node.id node in
            if id <> p && not (Net.is_down t.net id) then begin
              let missing = Node.missing_sealed_epochs node ~peer:p ~upto:e in
              List.iter
                (fun cen ->
                  match Backup.get t.backup ~node:p ~cen with
                  | None -> ()
                  | Some batch ->
                    let delay = 2 * Topology.latency t.topology id p in
                    Sim.schedule t.sim ~after:delay (fun () ->
                        Node.receive node (Node.Batch_msg batch)))
                missing;
              Node.try_advance node
            end)
          t.nodes
      end
    | [ "add"; p; e ] ->
      let p = int_of_string p and er = int_of_string e in
      let current = (List.hd t.views).members in
      if not (List.mem p current) then begin
        t.views <-
          { from_epoch = er; members = List.sort compare (p :: current) } :: t.views;
        (* Find a donor and queue the state transfer: it fires when the
           donor generates snapshot (er - 1). *)
        match pick_donor t ~target:p with
        | None -> ()
        | Some donor ->
          t.pending_transfers <-
            { donor; target = p; rejoin_epoch = er } :: t.pending_transfers;
          (* The donor may already be past er - 1. *)
          check_transfers t ~node:donor ~lsn:(Node.lsn t.nodes.(donor))
      end
    | _ -> ()
  end

and check_transfers t ~node ~lsn =
  let ready, still =
    List.partition
      (fun p -> p.donor = node && lsn >= p.rejoin_epoch - 1)
      t.pending_transfers
  in
  t.pending_transfers <- still;
  List.iter (fun tr -> send_transfer t tr) ready

and send_transfer t { donor; target; rejoin_epoch } =
  let obs = Sim.obs t.sim in
  (* The transfer's span travels with the snapshot; the receive side's
     state.install event names it as parent. *)
  let sspan = Obs.new_span obs ~node:donor in
  let lsn, ckpt = Node.checkpoint t.nodes.(donor) in
  (* +8 models the trace-context header of the snapshot message. *)
  let bytes = Bytes.length ckpt + 8 in
  (if Obs.tracing obs then
     Obs.emit obs ~node:donor ~span:sspan ~cat:"cluster" "state.transfer"
       ~detail:
         (Printf.sprintf "target=%d rejoin_epoch=%d bytes=%d" target
            rejoin_epoch bytes));
  Net.send t.net ~src:donor ~dst:target ~bytes (fun () ->
      if Obs.tracing obs then
        Obs.emit obs ~node:target ~cat:"cluster" "state.install"
          ~parent:(if sspan > 0 then sspan else -1)
          ~detail:(Printf.sprintf "from=%d lsn=%d" donor lsn);
      Node.install_state t.nodes.(target) ~rejoin:rejoin_epoch ~lsn
        ~db:(Gg_storage.Checkpoint.decode ckpt);
      (* Reset failure detection clocks for the re-joined node. *)
      Array.iter (fun n -> Node.touch_eof n ~peer:target) t.nodes);
  (* The snapshot itself travels over the faulty network. If the target
     has still not resumed after a generous delay (snapshot lost, or the
     donor failed meanwhile), run the transfer again from a — possibly
     different — live donor. [install_state] ignores duplicates, so a
     retry racing a slow original is harmless. *)
  Sim.schedule t.sim ~after:500_000 (fun () ->
      if
        (not (Node.active t.nodes.(target)))
        && List.mem target (List.hd t.views).members
        && not (Net.is_down t.net target)
      then
        match pick_donor t ~target with
        | None -> ()
        | Some donor ->
          t.pending_transfers <-
            { donor; target; rejoin_epoch } :: t.pending_transfers;
          check_transfers t ~node:donor ~lsn:(Node.lsn t.nodes.(donor)))

(* --- failure detection (500 ms EOF silence => propose removal) --- *)

let membership_timeout_us = 500_000

let rec schedule_detector t =
  Sim.schedule t.sim ~after:100_000 (fun () ->
      let now = Sim.now t.sim in
      let current = (List.hd t.views).members in
      let timeout = membership_timeout_us in
      (* A freshly added view can start in the future (re-joins pick a
         rejoin epoch far enough out for the state transfer to land).
         Members are expected silent until then, so the silence clock
         must not start before the view does. *)
      let view_start = (List.hd t.views).from_epoch * epoch_us t in
      List.iter
        (fun p ->
          let suspected =
            List.exists
              (fun o ->
                o <> p
                && (not (Net.is_down t.net o))
                && Node.active t.nodes.(o)
                && now
                   - max
                       (Node.last_eof_from t.nodes.(o) ~peer:p)
                       (max t.last_view_change view_start)
                   > timeout)
              current
          in
          if suspected then begin
            let e = max (Backup.last_sealed t.backup ~node:p) (Node.lsn t.nodes.(p)) in
            (* The current epoch is a nonce: a node that must be removed
               twice without progress in between (failed re-join) would
               otherwise produce the same proposal string and be
               swallowed by the dedup below. *)
            let proposal =
              Printf.sprintf "remove:%d:%d:%d" p e (current_epoch t)
            in
            if not (Hashtbl.mem t.proposed proposal) then
              if Raft.propose_anywhere t.raft proposal then
                Hashtbl.replace t.proposed proposal ()
          end)
        current;
      schedule_detector t)

let create ?(params = Params.default) ?(jitter_frac = 0.05) ?(loss = 0.0)
    ?(dup = 0.0) ?(reorder = 0.0) ~topology ~load () =
  let sim = Sim.create () in
  let rng = Gg_util.Rng.create params.Params.seed in
  let net = Net.create sim ~rng ~topology ~jitter_frac ~loss ~dup ~reorder () in
  let n = Topology.n_nodes topology in
  let backup = Backup.create ~n in
  let clock =
    Gg_sim.Clock.create ~seed:params.Params.seed ~topology
      ~bound_us:(if params.Params.fastpath then params.Params.clock_skew_us else 0)
  in
  let env =
    {
      Node.sim;
      net;
      params;
      backup;
      clock;
      members_at = (fun _ -> List.init n (fun i -> i));
      deliver = (fun ~dst:_ _ -> ());
      on_snapshot = (fun ~node:_ ~lsn:_ -> ());
      on_commit = (fun _ -> ());
    }
  in
  (* [load] populates every replica identically, so it runs once and the
     other replicas start from copies of that image. *)
  let image = Db.create () in
  load image;
  let nodes =
    Array.init n (fun id ->
        Node.create env ~id ~db:(if id = 0 then image else Db.copy image))
  in
  (* The Raft apply callback needs the cluster record, which needs the
     Raft instance: tie the knot with a forward reference. *)
  let tref = ref None in
  let raft =
    Raft.create net
      ~rng:(Gg_util.Rng.create (params.Params.seed + 17))
      ~apply:(fun ~node:_ ~index:_ data ->
        match !tref with Some t -> apply_view_change t data | None -> ())
  in
  let t =
    {
      sim;
      net;
      params;
      topology;
      backup;
      env;
      nodes;
      raft;
      views = [ { from_epoch = 0; members = List.init n (fun i -> i) } ];
      applied_proposals = Hashtbl.create 8;
      proposed = Hashtbl.create 8;
      pending_transfers = [];
      last_view_change = 0;
      snapshot_hooks = [];
      commit_hooks = [];
    }
  in
  tref := Some t;
  env.Node.members_at <- (fun e -> members_at_views t.views e);
  env.Node.deliver <- (fun ~dst msg -> Node.receive t.nodes.(dst) msg);
  env.Node.on_snapshot <-
    (fun ~node ~lsn ->
      (* Observer hooks run first: the node's state is exactly the new
         snapshot at this instant (write-back done, next merge not yet
         started), which is what digest-based oracles need. *)
      List.iter (fun f -> f ~node ~lsn) (List.rev t.snapshot_hooks);
      check_transfers t ~node ~lsn);
  env.Node.on_commit <-
    (fun txn -> List.iter (fun f -> f txn) (List.rev t.commit_hooks));
  Raft.start raft;
  (* GeoG-A gossips without epochs (DESIGN.md §3.1): it seals nothing,
     has no stalled merge to repair and sends no EOF whose silence the
     failure detector could time. *)
  if params.Params.variant <> Params.Async_merge then begin
    Array.iter Node.start nodes;
    schedule_detector t
  end;
  t

let sim t = t.sim
let obs t = Sim.obs t.sim
let net t = t.net
let params t = t.params
let clock t = t.env.Node.clock
let n_nodes t = Array.length t.nodes
let node t i = t.nodes.(i)
let metrics t i = Node.metrics t.nodes.(i)
let backup t = t.backup

let submit t ~node req cb = Node.submit t.nodes.(node) req cb

let on_snapshot t f = t.snapshot_hooks <- f :: t.snapshot_hooks
let on_commit t f = t.commit_hooks <- f :: t.commit_hooks

let members t = (List.hd t.views).members

let route t ~preferred =
  let live = List.filter (fun m -> not (Net.is_down t.net m)) (members t) in
  if List.mem preferred live then preferred
  else
    match live with
    | [] -> preferred
    | first :: _ ->
      List.fold_left
        (fun best m ->
          if
            Topology.latency t.topology preferred m
            < Topology.latency t.topology preferred best
          then m
          else best)
        first live

let run_until t time = Sim.run_until t.sim time
let run_for_ms t ms = Sim.run_until t.sim (Sim.now t.sim + Sim.ms ms)

let crash t i =
  Obs.emit (Sim.obs t.sim) ~node:i ~cat:"cluster" "crash";
  Net.set_down t.net i true;
  Node.set_active t.nodes.(i) false

let recover t i =
  Obs.emit (Sim.obs t.sim) ~node:i ~cat:"cluster" "recover";
  Net.set_down t.net i false;
  (* Re-join a few epochs in the future: enough for the membership change
     to commit and the state snapshot to arrive. *)
  let margin =
    3 + ((500_000 + (2 * 40_000)) / epoch_us t)
  in
  let er = current_epoch t + margin in
  let proposal = Printf.sprintf "add:%d:%d" i er in
  let rec try_propose attempts =
    if attempts > 0 && not (Raft.propose_anywhere t.raft proposal) then
      Sim.schedule t.sim ~after:100_000 (fun () -> try_propose (attempts - 1))
  in
  try_propose 50

let total_committed t =
  Array.fold_left (fun acc n -> acc + Metrics.committed (Node.metrics n)) 0 t.nodes

let total_aborted t =
  Array.fold_left (fun acc n -> acc + Metrics.aborted (Node.metrics n)) 0 t.nodes

let lsns t = Array.to_list (Array.map Node.lsn t.nodes)

let digests t = Array.to_list (Array.map (fun n -> Db.digest (Node.db n)) t.nodes)

let quiesce t =
  (* Run until every live member's snapshot covers every epoch sealed
     {e as of the call} (epochs keep sealing while we run, so that part
     of the target must be fixed up front or this would chase its own
     tail) — AND until all in-flight work has drained: a client request
     started just before the call can still commit {e during} the drain,
     landing in an epoch past the fixed target; comparing full-database
     digests before every live replica has merged that epoch reports a
     divergence that is really just unequal lsns. [Node.last_txn_epoch]
     is the highest epoch holding a committed local transaction (it
     stops moving once clients stop), and a non-empty waiting set means
     a commit is still in flight at its origin — both must settle. *)
  let live () = List.filter (fun m -> not (Net.is_down t.net m)) (members t) in
  let target =
    List.fold_left
      (fun acc m -> max acc (Node.sealed_epoch t.nodes.(m)))
      (-1) (live ())
  in
  let settled () =
    let lv = live () in
    let tx_target =
      List.fold_left
        (fun acc m -> max acc (Node.last_txn_epoch t.nodes.(m)))
        (-1) lv
    in
    List.for_all
      (fun m ->
        let n = t.nodes.(m) in
        Node.lsn n >= target
        && Node.lsn n >= tx_target
        && Node.pending_waiting n = 0)
      lv
  in
  let budget = ref 2_000 in
  while (not (settled ())) && !budget > 0 do
    decr budget;
    run_for_ms t 10
  done
