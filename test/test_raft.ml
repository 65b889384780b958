(* Raft safety and liveness tests over the simulated network. *)

module Sim = Gg_sim.Sim
module Net = Gg_sim.Net
module Topology = Gg_sim.Topology
module Raft = Gg_raft.Raft

type harness = {
  sim : Sim.t;
  net : Net.t;
  raft : Raft.t;
  applied : (int, (int * string) list ref) Hashtbl.t;  (* node -> rev log *)
}

let make ?(n = 3) ?(topo = `Local) ?(seed = 7) () =
  let sim = Sim.create () in
  let rng = Gg_util.Rng.create seed in
  let topology =
    match topo with `Local -> Topology.single_region n | `China -> Topology.china n
  in
  let net = Net.create sim ~rng ~topology ~jitter_frac:0.02 () in
  let applied = Hashtbl.create 8 in
  for i = 0 to n - 1 do
    Hashtbl.replace applied i (ref [])
  done;
  let apply ~node ~index data =
    let l = Hashtbl.find applied node in
    l := (index, data) :: !l
  in
  let raft = Raft.create net ~rng:(Gg_util.Rng.create (seed + 1)) ~apply in
  Raft.start raft;
  { sim; net; raft; applied }

let applied_list h node = List.rev !(Hashtbl.find h.applied node)

let run_ms h ms = Sim.run_until h.sim (Sim.now h.sim + Sim.ms ms)

let leaders h =
  List.filter
    (fun i -> Raft.role h.raft i = Raft.Leader && not (Net.is_down h.net i))
    (List.init (Raft.n_nodes h.raft) (fun i -> i))

let test_elects_single_leader () =
  let h = make () in
  run_ms h 2_000;
  (match leaders h with
  | [ _ ] -> ()
  | ls -> Alcotest.failf "expected one leader, got %d" (List.length ls));
  (* At most one leader per term (here: only one live leader at all). *)
  Alcotest.(check bool) "has leader" true (Raft.current_leader h.raft <> None)

let test_replicates_entries () =
  let h = make () in
  run_ms h 2_000;
  let ok = Raft.propose_anywhere h.raft "cmd-1" in
  Alcotest.(check bool) "accepted" true ok;
  ignore (Raft.propose_anywhere h.raft "cmd-2");
  run_ms h 1_000;
  for i = 0 to 2 do
    Alcotest.(check (list (pair int string)))
      (Printf.sprintf "node %d applied" i)
      [ (1, "cmd-1"); (2, "cmd-2") ]
      (applied_list h i)
  done

let test_propose_rejected_on_follower () =
  let h = make () in
  run_ms h 2_000;
  let leader = Option.get (Raft.current_leader h.raft) in
  let follower = (leader + 1) mod 3 in
  Alcotest.(check bool) "follower rejects" false
    (Raft.propose h.raft ~node:follower "nope")

let test_leader_failover () =
  let h = make () in
  run_ms h 2_000;
  let old_leader = Option.get (Raft.current_leader h.raft) in
  ignore (Raft.propose_anywhere h.raft "before-crash");
  run_ms h 500;
  Net.set_down h.net old_leader true;
  run_ms h 3_000;
  (match Raft.current_leader h.raft with
  | Some l -> Alcotest.(check bool) "new leader elected" true (l <> old_leader)
  | None -> Alcotest.fail "no leader after failover");
  ignore (Raft.propose_anywhere h.raft "after-crash");
  run_ms h 1_000;
  let survivor = Option.get (Raft.current_leader h.raft) in
  Alcotest.(check (list (pair int string)))
    "survivor has both entries"
    [ (1, "before-crash"); (2, "after-crash") ]
    (applied_list h survivor)

let test_crashed_node_catches_up () =
  let h = make () in
  run_ms h 2_000;
  let leader = Option.get (Raft.current_leader h.raft) in
  let victim = (leader + 1) mod 3 in
  Net.set_down h.net victim true;
  ignore (Raft.propose_anywhere h.raft "while-down-1");
  ignore (Raft.propose_anywhere h.raft "while-down-2");
  run_ms h 1_000;
  Net.set_down h.net victim false;
  run_ms h 2_000;
  Alcotest.(check (list (pair int string)))
    "victim caught up"
    [ (1, "while-down-1"); (2, "while-down-2") ]
    (applied_list h victim)

let test_log_prefix_agreement () =
  (* Safety: applied sequences on all nodes are prefixes of each other. *)
  let h = make ~n:5 ~topo:`China () in
  run_ms h 3_000;
  for k = 1 to 20 do
    ignore (Raft.propose_anywhere h.raft (Printf.sprintf "op-%d" k));
    run_ms h 100
  done;
  run_ms h 3_000;
  let logs = List.init 5 (fun i -> applied_list h i) in
  let longest = List.fold_left (fun a l -> if List.length l > List.length a then l else a) [] logs in
  List.iter
    (fun l ->
      let rec is_prefix a b =
        match (a, b) with
        | [], _ -> true
        | x :: xs, y :: ys -> x = y && is_prefix xs ys
        | _ :: _, [] -> false
      in
      Alcotest.(check bool) "prefix of longest" true (is_prefix l longest))
    logs

let test_no_commit_without_majority () =
  let h = make () in
  run_ms h 2_000;
  let leader = Option.get (Raft.current_leader h.raft) in
  (* Isolate the leader from both followers. *)
  List.iter (fun i -> if i <> leader then Net.set_down h.net i true)
    [ 0; 1; 2 ];
  ignore (Raft.propose h.raft ~node:leader "isolated");
  run_ms h 1_000;
  Alcotest.(check (list (pair int string)))
    "not applied without majority" [] (applied_list h leader)

let test_wan_election_stable () =
  (* Elections settle even with 30 ms one-way latencies. *)
  let h = make ~n:3 ~topo:`China () in
  run_ms h 5_000;
  Alcotest.(check bool) "leader exists" true (Raft.current_leader h.raft <> None);
  ignore (Raft.propose_anywhere h.raft "geo");
  run_ms h 2_000;
  let committed =
    List.length (List.filter (fun i -> applied_list h i <> []) [ 0; 1; 2 ])
  in
  Alcotest.(check int) "all applied" 3 committed

let test_term_monotonic_and_entries () =
  let h = make () in
  run_ms h 2_000;
  let leader = Option.get (Raft.current_leader h.raft) in
  let t0 = Raft.term h.raft leader in
  ignore (Raft.propose_anywhere h.raft "a");
  ignore (Raft.propose_anywhere h.raft "b");
  run_ms h 1_000;
  Alcotest.(check bool) "term stable without failures" true
    (Raft.term h.raft leader = t0);
  Alcotest.(check int) "log length" 2 (Raft.log_length h.raft leader);
  Alcotest.(check int) "commit index" 2 (Raft.commit_index h.raft leader);
  (match Raft.entry_at h.raft ~node:leader ~index:1 with
  | Some e -> Alcotest.(check string) "entry data" "a" e.Raft.data
  | None -> Alcotest.fail "missing entry");
  Alcotest.(check bool) "out of range" true
    (Raft.entry_at h.raft ~node:leader ~index:3 = None)

let test_leadership_stable_under_load () =
  (* Heartbeats suppress spurious elections over a long quiet period. *)
  let h = make () in
  run_ms h 2_000;
  let leader = Option.get (Raft.current_leader h.raft) in
  run_ms h 10_000;
  Alcotest.(check bool) "same leader after 10s idle" true
    (Raft.current_leader h.raft = Some leader)

let test_single_node_cluster () =
  let h = make ~n:1 () in
  run_ms h 2_000;
  Alcotest.(check bool) "self-elected" true (Raft.current_leader h.raft = Some 0);
  ignore (Raft.propose h.raft ~node:0 "solo");
  run_ms h 100;
  Alcotest.(check (list (pair int string))) "applied" [ (1, "solo") ] (applied_list h 0)

let () =
  Alcotest.run "gg_raft"
    [
      ( "raft",
        [
          Alcotest.test_case "elects single leader" `Quick test_elects_single_leader;
          Alcotest.test_case "replicates entries" `Quick test_replicates_entries;
          Alcotest.test_case "follower rejects propose" `Quick test_propose_rejected_on_follower;
          Alcotest.test_case "leader failover" `Quick test_leader_failover;
          Alcotest.test_case "crashed node catches up" `Quick test_crashed_node_catches_up;
          Alcotest.test_case "log prefix agreement" `Quick test_log_prefix_agreement;
          Alcotest.test_case "no commit without majority" `Quick test_no_commit_without_majority;
          Alcotest.test_case "wan election stable" `Quick test_wan_election_stable;
          Alcotest.test_case "term/entries accessors" `Quick test_term_monotonic_and_entries;
          Alcotest.test_case "stable leadership" `Quick test_leadership_stable_under_load;
          Alcotest.test_case "single-node cluster" `Quick test_single_node_cluster;
        ] );
    ]
