module Sim = Gg_sim.Sim
module Net = Gg_sim.Net
module Op = Gg_workload.Op

type strategy = {
  strat_name : string;
  per_txn_sched_us : int;
  preprocess_us : int;
  lock_critical_path : bool;
  reservation_aborts : bool;
  extra_round_us : int;
  ft_raft : bool;
}

type entry = {
  origin : int;
  seq : int;
  txn : Op.txn;
  submit_time : int;
  cb : Engine.outcome -> unit;
}

type node_state = {
  id : int;
  mutable batch : entry list;  (* being collected, newest first *)
  arrived : (int * int, entry list) Hashtbl.t;  (* (round, src) -> txns *)
  mutable done_round : int;
  mutable executing : bool;
}

type t = {
  sim : Sim.t;
  net : Net.t;
  cfg : Engine.config;
  strat : strategy;
  nodes : node_state array;
  mutable seq : int;
  mutable started : bool;
}

let create net cfg strat =
  let n = Net.n_nodes net in
  let t =
    {
      sim = Net.sim net;
      net;
      cfg;
      strat;
      nodes =
        Array.init n (fun id ->
            {
              id;
              batch = [];
              arrived = Hashtbl.create 64;
              done_round = -1;
              executing = false;
            });
      seq = 0;
      started = false;
    }
  in
  t

let txn_exec_us t (txn : Op.txn) =
  (Op.n_ops txn * t.cfg.Engine.exec_op_us) + txn.Op.exec_extra_us

(* Deterministic order within a round: by (origin, seq). *)
let round_order entries =
  List.sort
    (fun a b ->
      let c = compare a.origin b.origin in
      if c <> 0 then c else compare a.seq b.seq)
    entries

(* Which transactions abort under Aria-style reservations: a transaction
   aborts on a WAW or RAW conflict with an earlier transaction. *)
let reservation_outcomes entries =
  let writers : (string * string, int) Hashtbl.t = Hashtbl.create 64 in
  List.iteri
    (fun i e ->
      Array.iter
        (fun op ->
          match op with
          | Op.Read _ -> ()
          | Op.Write _ | Op.Add _ | Op.Insert _ | Op.Delete _ ->
            let k = (Op.op_table op, Op.op_key_str op) in
            if not (Hashtbl.mem writers k) then Hashtbl.replace writers k i)
        e.txn.Op.ops)
    entries;
  List.mapi
    (fun i e ->
      let conflicted =
        Array.exists
          (fun op ->
            let k = (Op.op_table op, Op.op_key_str op) in
            match Hashtbl.find_opt writers k with
            | Some j when j < i -> true
            | Some _ | None -> false)
          e.txn.Op.ops
      in
      (e, not conflicted))
    entries

(* Round duration on one node. *)
let round_duration t entries =
  let total_work =
    List.fold_left (fun acc e -> acc + txn_exec_us t e.txn) 0 entries
  in
  let parallel_floor = total_work / max 1 t.cfg.Engine.cores in
  let longest_txn =
    List.fold_left (fun acc e -> max acc (txn_exec_us t e.txn)) 0 entries
  in
  let critical =
    if not t.strat.lock_critical_path then longest_txn
    else begin
      (* Ordered locks: per-key chains of conflicting txns serialize. *)
      let chains : (string * string, int) Hashtbl.t = Hashtbl.create 64 in
      List.iter
        (fun e ->
          let cost = txn_exec_us t e.txn in
          let seen = Hashtbl.create 8 in
          Array.iter
            (fun op ->
              match op with
              | Op.Read _ -> ()
              | Op.Write _ | Op.Add _ | Op.Insert _ | Op.Delete _ ->
                let k = (Op.op_table op, Op.op_key_str op) in
                if not (Hashtbl.mem seen k) then begin
                  Hashtbl.replace seen k ();
                  let prev = Option.value ~default:0 (Hashtbl.find_opt chains k) in
                  Hashtbl.replace chains k (prev + cost)
                end)
            e.txn.Op.ops)
        entries;
      Hashtbl.fold (fun _ v acc -> max acc v) chains longest_txn
    end
  in
  let overhead =
    List.length entries * (t.strat.per_txn_sched_us + t.strat.preprocess_us)
  in
  t.strat.extra_round_us + overhead + max parallel_floor critical

let rec try_execute t nd =
  if not nd.executing then begin
    let r = nd.done_round + 1 in
    let n = Net.n_nodes t.net in
    let have_all =
      let rec go src =
        src >= n || (Hashtbl.mem nd.arrived (r, src) && go (src + 1))
      in
      go 0
    in
    if have_all then begin
      nd.executing <- true;
      let entries =
        round_order
          (List.concat_map
             (fun src -> Hashtbl.find nd.arrived (r, src))
             (List.init n Fun.id))
      in
      let duration = round_duration t entries in
      Sim.schedule t.sim ~after:duration (fun () ->
          let outcomes =
            if t.strat.reservation_aborts then reservation_outcomes entries
            else List.map (fun e -> (e, true)) entries
          in
          List.iter
            (fun (e, ok) ->
              (* The client is answered by the transaction's origin node. *)
              if e.origin = nd.id then
                e.cb
                  {
                    Engine.committed = ok;
                    latency_us = Sim.now t.sim - e.submit_time;
                  })
            outcomes;
          for src = 0 to n - 1 do
            Hashtbl.remove nd.arrived (r, src)
          done;
          nd.done_round <- r;
          nd.executing <- false;
          try_execute t nd)
    end
  end

let deliver t ~dst ~round ~src entries =
  let nd = t.nodes.(dst) in
  if not (Hashtbl.mem nd.arrived (round, src)) then begin
    Hashtbl.replace nd.arrived (round, src) entries;
    try_execute t nd
  end

let seal t nd round =
  let entries = List.rev nd.batch in
  nd.batch <- [];
  let bytes = Engine.input_wire_bytes (List.map (fun e -> e.txn) entries) in
  (* Raft input replication delays batch availability by roughly one
     extra round trip (append + ack before commit). *)
  let topo = Net.topology t.net in
  for dst = 0 to Net.n_nodes t.net - 1 do
    if dst = nd.id then begin
      if t.strat.ft_raft then begin
        (* Leader itself waits for a majority ack: one RTT to the nearest
           majority peer. *)
        let rtts =
          List.sort compare
            (List.filteri
               (fun i _ -> i <> nd.id)
               (List.init (Net.n_nodes t.net) (fun i ->
                    Gg_sim.Topology.latency topo nd.id i)))
        in
        let majority_rtt = match rtts with x :: _ -> 2 * x | [] -> 0 in
        Sim.schedule t.sim ~after:majority_rtt (fun () ->
            deliver t ~dst ~round ~src:nd.id entries)
      end
      else deliver t ~dst ~round ~src:nd.id entries
    end
    else begin
      let extra =
        if t.strat.ft_raft then 2 * Gg_sim.Topology.latency topo nd.id dst else 0
      in
      Net.send t.net ~src:nd.id ~dst ~bytes (fun () ->
          if extra > 0 then
            Sim.schedule t.sim ~after:extra (fun () ->
                deliver t ~dst ~round ~src:nd.id entries)
          else deliver t ~dst ~round ~src:nd.id entries)
    end
  done

let start_sequencer t nd =
  let rec boundary round =
    Sim.schedule_at t.sim ((round + 1) * t.cfg.Engine.batch_us) (fun () ->
        seal t nd round;
        boundary (round + 1))
  in
  boundary (Sim.now t.sim / t.cfg.Engine.batch_us)

let ensure_started t =
  if not t.started then begin
    t.started <- true;
    Array.iter (fun nd -> start_sequencer t nd) t.nodes
  end

let submit t ~node txn cb =
  ensure_started t;
  t.seq <- t.seq + 1;
  let entry =
    { origin = node; seq = t.seq; txn; submit_time = Sim.now t.sim; cb }
  in
  t.nodes.(node).batch <- entry :: t.nodes.(node).batch
