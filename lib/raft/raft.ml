module Sim = Gg_sim.Sim
module Net = Gg_sim.Net
module Obs = Gg_obs.Obs

type role = Follower | Candidate | Leader

type entry = { term : int; data : string }

type msg =
  | Request_vote of { term : int; candidate : int; last_idx : int; last_term : int }
  | Vote of { term : int; voter : int; granted : bool }
  | Append of {
      term : int;
      leader : int;
      prev_idx : int;
      prev_term : int;
      entries : entry list;
      commit : int;
    }
  | Append_ack of { term : int; follower : int; success : bool; match_idx : int }

type node = {
  id : int;
  mutable term : int;
  mutable voted_for : int option;
  mutable role : role;
  mutable log : entry array;  (* 1-based view: log.(i-1) *)
  mutable commit_index : int;
  mutable last_applied : int;
  mutable next_index : int array;
  mutable match_index : int array;
  mutable votes : int list;
  mutable last_contact : int;  (* last heartbeat/vote-grant time *)
  mutable timeout : int;  (* current randomized election timeout *)
}

type t = {
  sim : Sim.t;
  net : Net.t;
  rng : Gg_util.Rng.t;
  n : int;
  nodes : node array;
  apply : node:int -> index:int -> string -> unit;
}

(* 64 bytes of fixed header per message plus an 8-byte trace-context
   header (span id), matching the framing of the epoch-batch wire form. *)
let msg_size = function
  | Request_vote _ | Vote _ | Append_ack _ -> 72
  | Append { entries; _ } ->
    72 + List.fold_left (fun n e -> n + 16 + String.length e.data) 0 entries

let msg_kind = function
  | Request_vote _ -> "vote.req"
  | Vote _ -> "vote"
  | Append _ -> "append"
  | Append_ack _ -> "append.ack"

(* Leader heartbeat period and base election timeout (randomized up to
   2x). *)
let heartbeat_us = 50_000
let election_timeout_us = 300_000

let create net ~rng ~apply =
  let n = Net.n_nodes net in
  let nodes =
    Array.init n (fun id ->
        {
          id;
          term = 0;
          voted_for = None;
          role = Follower;
          log = [||];
          commit_index = 0;
          last_applied = 0;
          next_index = Array.make n 1;
          match_index = Array.make n 0;
          votes = [];
          last_contact = 0;
          timeout = election_timeout_us;
        })
  in
  { sim = Net.sim net; net; rng; n; nodes; apply }

let n_nodes t = t.n

let log_length_of nd = Array.length nd.log
let last_log_term nd = if nd.log = [||] then 0 else nd.log.(Array.length nd.log - 1).term

let log_term_at nd idx =
  if idx = 0 then 0
  else if idx <= Array.length nd.log then nd.log.(idx - 1).term
  else -1

let fresh_timeout t =
  election_timeout_us + Gg_util.Rng.int t.rng election_timeout_us

let is_down t id = Net.is_down t.net id

(* Each send allocates a causal span carried (conceptually) in the
   message's trace-context header; the delivery-side recv event names it
   as parent, so Raft hops appear in the cross-node causal DAG. Span
   allocation is a no-op (returns 0) when tracing is off. *)
let rec send t ~src ~dst msg =
  let obs = Sim.obs t.sim in
  let span = Obs.new_span obs ~node:src in
  if Obs.tracing obs then
    Obs.emit obs ~node:src ~span ~cat:"raft" "send" ~detail:(msg_kind msg);
  Net.send t.net ~src ~dst ~bytes:(msg_size msg) (fun () ->
      dispatch t dst ~parent:span msg)

and dispatch t dst ~parent msg =
  let obs = Sim.obs t.sim in
  if Obs.tracing obs then
    Obs.emit obs ~node:dst ~cat:"raft" "recv"
      ~parent:(if parent > 0 then parent else -1)
      ~detail:(msg_kind msg);
  handle t t.nodes.(dst) msg

and become_follower t nd term =
  nd.term <- term;
  nd.role <- Follower;
  nd.voted_for <- None;
  nd.votes <- [];
  nd.last_contact <- Sim.now t.sim

and apply_committed t nd =
  while nd.last_applied < nd.commit_index do
    nd.last_applied <- nd.last_applied + 1;
    let e = nd.log.(nd.last_applied - 1) in
    let obs = Sim.obs t.sim in
    if Obs.tracing obs then
      Obs.emit obs ~node:nd.id ~span:nd.last_applied ~cat:"raft" "apply"
        ~detail:e.data;
    t.apply ~node:nd.id ~index:nd.last_applied e.data
  done

and advance_leader_commit t nd =
  (* Commit the highest index replicated on a majority with current term. *)
  let len = log_length_of nd in
  let idx = ref nd.commit_index in
  for candidate = nd.commit_index + 1 to len do
    if log_term_at nd candidate = nd.term then begin
      let count =
        1
        + Array.fold_left
            (fun acc m -> if m >= candidate then acc + 1 else acc)
            0
            (Array.mapi
               (fun i m -> if i = nd.id then -1 else m)
               nd.match_index)
      in
      if count * 2 > t.n then idx := candidate
    end
  done;
  if !idx > nd.commit_index then begin
    nd.commit_index <- !idx;
    apply_committed t nd
  end

and replicate_to t nd peer =
  let next = nd.next_index.(peer) in
  let prev_idx = next - 1 in
  let prev_term = log_term_at nd prev_idx in
  let entries =
    if next <= log_length_of nd then
      Array.to_list (Array.sub nd.log (next - 1) (log_length_of nd - next + 1))
    else []
  in
  send t ~src:nd.id ~dst:peer
    (Append
       {
         term = nd.term;
         leader = nd.id;
         prev_idx;
         prev_term;
         entries;
         commit = nd.commit_index;
       })

and broadcast_append t nd =
  for peer = 0 to t.n - 1 do
    if peer <> nd.id then replicate_to t nd peer
  done

and become_leader t nd =
  Obs.emit (Sim.obs t.sim) ~node:nd.id ~span:nd.term ~cat:"raft" "leader";
  nd.role <- Leader;
  nd.next_index <- Array.make t.n (log_length_of nd + 1);
  nd.match_index <- Array.make t.n 0;
  broadcast_append t nd;
  schedule_heartbeat t nd nd.term

and schedule_heartbeat t nd term =
  Sim.schedule t.sim ~after:heartbeat_us (fun () ->
      if nd.role = Leader && nd.term = term && not (is_down t nd.id) then begin
        broadcast_append t nd;
        schedule_heartbeat t nd term
      end)

and start_election t nd =
  Obs.emit (Sim.obs t.sim) ~node:nd.id ~span:(nd.term + 1) ~cat:"raft" "election";
  nd.term <- nd.term + 1;
  nd.role <- Candidate;
  nd.voted_for <- Some nd.id;
  nd.votes <- [ nd.id ];
  nd.last_contact <- Sim.now t.sim;
  nd.timeout <- fresh_timeout t;
  let last_idx = log_length_of nd and last_term = last_log_term nd in
  for peer = 0 to t.n - 1 do
    if peer <> nd.id then
      send t ~src:nd.id ~dst:peer
        (Request_vote { term = nd.term; candidate = nd.id; last_idx; last_term })
  done;
  if t.n = 1 then become_leader t nd

and handle t nd msg =
  if not (is_down t nd.id) then
    match msg with
    | Request_vote { term; candidate; last_idx; last_term } ->
      if term > nd.term then become_follower t nd term;
      let up_to_date =
        last_term > last_log_term nd
        || (last_term = last_log_term nd && last_idx >= log_length_of nd)
      in
      let granted =
        term = nd.term
        && up_to_date
        && (nd.voted_for = None || nd.voted_for = Some candidate)
      in
      if granted then begin
        nd.voted_for <- Some candidate;
        nd.last_contact <- Sim.now t.sim
      end;
      send t ~src:nd.id ~dst:candidate (Vote { term = nd.term; voter = nd.id; granted })
    | Vote { term; voter; granted } ->
      if term > nd.term then become_follower t nd term
      else if nd.role = Candidate && term = nd.term && granted then begin
        if not (List.mem voter nd.votes) then nd.votes <- voter :: nd.votes;
        if List.length nd.votes * 2 > t.n then become_leader t nd
      end
    | Append { term; leader; prev_idx; prev_term; entries; commit } ->
      if term > nd.term then become_follower t nd term;
      if term < nd.term then
        send t ~src:nd.id ~dst:leader
          (Append_ack { term = nd.term; follower = nd.id; success = false; match_idx = 0 })
      else begin
        (* Valid leader for our term. *)
        if nd.role <> Follower then nd.role <- Follower;
        nd.last_contact <- Sim.now t.sim;
        if log_term_at nd prev_idx <> prev_term then
          send t ~src:nd.id ~dst:leader
            (Append_ack
               { term = nd.term; follower = nd.id; success = false; match_idx = 0 })
        else begin
          (* Append, truncating conflicts. *)
          let base = prev_idx in
          List.iteri
            (fun i (e : entry) ->
              let idx = base + i + 1 in
              if idx <= log_length_of nd then begin
                if nd.log.(idx - 1).term <> e.term then begin
                  nd.log <- Array.sub nd.log 0 (idx - 1);
                  nd.log <- Array.append nd.log [| e |]
                end
              end
              else nd.log <- Array.append nd.log [| e |])
            entries;
          let match_idx = base + List.length entries in
          if commit > nd.commit_index then begin
            nd.commit_index <- min commit (log_length_of nd);
            apply_committed t nd
          end;
          send t ~src:nd.id ~dst:leader
            (Append_ack { term = nd.term; follower = nd.id; success = true; match_idx })
        end
      end
    | Append_ack { term; follower; success; match_idx } ->
      if term > nd.term then become_follower t nd term
      else if nd.role = Leader && term = nd.term then
        if success then begin
          if match_idx > nd.match_index.(follower) then begin
            nd.match_index.(follower) <- match_idx;
            nd.next_index.(follower) <- match_idx + 1;
            advance_leader_commit t nd
          end
        end
        else begin
          nd.next_index.(follower) <- max 1 (nd.next_index.(follower) - 1);
          replicate_to t nd follower
        end

let rec schedule_election_check t nd =
  Sim.schedule t.sim ~after:(nd.timeout / 2) (fun () ->
      (if not (is_down t nd.id) then
         match nd.role with
         | Leader -> ()
         | Follower | Candidate ->
           if Sim.now t.sim - nd.last_contact >= nd.timeout then
             start_election t nd);
      schedule_election_check t nd)

let start t =
  Array.iter
    (fun nd ->
      nd.timeout <- fresh_timeout t;
      (* Stagger initial checks so elections rarely collide. *)
      nd.last_contact <- Sim.now t.sim;
      schedule_election_check t nd)
    t.nodes

let propose t ~node data =
  let nd = t.nodes.(node) in
  if nd.role <> Leader || is_down t node then false
  else begin
    nd.log <- Array.append nd.log [| { term = nd.term; data } |];
    nd.match_index.(nd.id) <- log_length_of nd;
    broadcast_append t nd;
    if t.n = 1 then begin
      nd.commit_index <- log_length_of nd;
      apply_committed t nd
    end;
    true
  end

let current_leader t =
  let best = ref None in
  Array.iter
    (fun nd ->
      if nd.role = Leader && not (is_down t nd.id) then
        match !best with
        | Some (_, term) when term >= nd.term -> ()
        | _ -> best := Some (nd.id, nd.term))
    t.nodes;
  Option.map fst !best

let propose_anywhere t data =
  match current_leader t with
  | None -> false
  | Some leader -> propose t ~node:leader data

let role t i = t.nodes.(i).role
let term t i = t.nodes.(i).term
let log_length t i = log_length_of t.nodes.(i)
let commit_index t i = t.nodes.(i).commit_index

let entry_at t ~node ~index =
  let nd = t.nodes.(node) in
  if index >= 1 && index <= log_length_of nd then Some nd.log.(index - 1) else None
