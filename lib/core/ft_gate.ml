module Topology = Gg_sim.Topology
module Itbl = Epoch_merge.Itbl

type t = {
  notify_delay : int;
  raft : bool;
  tallies : int list Itbl.t;  (* open tallies: cen -> peers that acked *)
}

let create (params : Params.t) ~topology ~node =
  let notify_delay =
    match params.Params.ft with
    | Params.Ft_none | Params.Ft_raft -> 0
    | Params.Ft_local_backup ->
      (* round trip to a same-region backup server *)
      2 * Topology.latency topology node node
    | Params.Ft_remote_backup ->
      (* round trip to the nearest other-region backup *)
      let best = ref max_int in
      for p = 0 to Topology.n_nodes topology - 1 do
        if Topology.region_of topology p <> Topology.region_of topology node
        then best := min !best (Topology.latency topology node p)
      done;
      if !best = max_int then 0 else 2 * !best
  in
  let raft = params.Params.ft = Params.Ft_raft in
  { notify_delay; raft; tallies = Itbl.create 16 }

let notify_delay t = t.notify_delay
let awaits_commit t = t.raft
let acks_eof t = t.raft

(* A node that is a majority on its own has no peer to announce to. *)
let sealed t ~cen ~members =
  if t.raft && members >= 2 then Itbl.replace t.tallies cen []

let ack t ~cen ~from ~members =
  match Itbl.find_opt t.tallies cen with
  | None -> false (* closed, or never opened since the last crash *)
  | Some acks when List.mem from acks -> false
  | Some acks ->
    let acks = from :: acks in
    (* self + acks form the majority *)
    let majority = (List.length acks + 1) * 2 > members in
    if majority then Itbl.remove t.tallies cen
    else Itbl.replace t.tallies cen acks;
    majority

let reset t = Itbl.reset t.tallies
