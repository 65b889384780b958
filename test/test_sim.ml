(* Tests for the discrete-event simulator: event queue ordering, engine
   semantics, CPU queueing, network delivery/loss/dup, topologies. *)

open Gg_sim

(* --- Event_queue --- *)

let test_eq_ordering () =
  let q = Event_queue.create ~filler:"" in
  Event_queue.push q ~time:5 "e5";
  Event_queue.push q ~time:1 "e1";
  Event_queue.push q ~time:3 "e3";
  let order = List.init 3 (fun _ -> Option.get (Event_queue.pop q)) in
  Alcotest.(check (list (pair int string)))
    "sorted" [ (1, "e1"); (3, "e3"); (5, "e5") ] order

let test_eq_fifo_ties () =
  let q = Event_queue.create ~filler:0 in
  for i = 0 to 9 do
    Event_queue.push q ~time:7 i
  done;
  for i = 0 to 9 do
    match Event_queue.pop q with
    | Some (7, v) -> Alcotest.(check int) "fifo among equal times" i v
    | _ -> Alcotest.fail "bad pop"
  done

let test_eq_interleaved () =
  let q = Event_queue.create ~filler:() in
  let rng = Gg_util.Rng.create 5 in
  let n = 2000 in
  for _ = 1 to n do
    Event_queue.push q ~time:(Gg_util.Rng.int rng 100) ()
  done;
  let last = ref (-1) in
  let count = ref 0 in
  let continue = ref true in
  while !continue do
    match Event_queue.pop q with
    | None -> continue := false
    | Some (t, ()) ->
      Alcotest.(check bool) "monotone" true (t >= !last);
      last := t;
      incr count
  done;
  Alcotest.(check int) "all popped" n !count

let test_eq_empty () =
  let q = Event_queue.create ~filler:() in
  Alcotest.(check bool) "empty" true (Event_queue.is_empty q);
  Alcotest.(check bool) "pop none" true (Event_queue.pop q = None);
  Alcotest.(check bool) "peek none" true (Event_queue.peek_time q = None)

(* A fired or cancelled event is no longer reachable from the queue:
   once its last outside reference is gone, a major collection frees its
   payload although the queue lives on. Each case leaves the removed
   event's entry in the slot the heap vacated: popping the root moves
   the last entry (here the tracked one) up, and that entry then fires
   too; cancelling the last leaf vacates its own slot. *)
let[@inline never] fire_tracked q weak =
  Event_queue.push q ~time:1 (Bytes.make 16 'a');
  let x = Bytes.make 16 'x' in
  Weak.set weak 0 (Some x);
  Event_queue.push q ~time:2 x;
  ignore (Sys.opaque_identity (Event_queue.pop q));
  ignore (Sys.opaque_identity (Event_queue.pop q));
  Event_queue.push q ~time:3 (Bytes.make 16 'c')

let[@inline never] cancel_tracked q weak =
  Event_queue.push q ~time:1 (Bytes.make 16 'a');
  let x = Bytes.make 16 'x' in
  Weak.set weak 1 (Some x);
  Event_queue.cancel q (Event_queue.add q ~time:2 x)

let test_eq_releases_removed () =
  let weak = Weak.create 2 in
  let fired = Event_queue.create ~filler:Bytes.empty in
  let cancelled = Event_queue.create ~filler:Bytes.empty in
  fire_tracked fired weak;
  cancel_tracked cancelled weak;
  Gc.full_major ();
  Alcotest.(check bool) "fired payload collected" false (Weak.check weak 0);
  Alcotest.(check bool) "cancelled payload collected" false
    (Weak.check weak 1);
  Alcotest.(check (pair int int)) "queues still hold the others" (1, 1)
    (Event_queue.length fired, Event_queue.length cancelled)

(* Cancellation against a reference model. Fifteen events pushed in
   ascending time fill the heap level by level, so the first cancels hit
   known slots: the root (t=1), a middle entry (t=3) and the last leaf
   (t=15); then one pop (t=2) is cancelled again, and t=3 twice. A
   random tail of pushes, pops and cancels (any handle, live, popped or
   cancelled) follows. Every pop must equal the reference's (time, seq)
   minimum with the cancelled entries removed. *)
type eq_op = Push of int | Pop | Cancel of int

let prop_eq_cancel_matches_reference =
  let fixed =
    List.init 15 (fun i -> Push (i + 1))
    @ [ Cancel 0; Cancel 2; Cancel 14; Pop; Cancel 1; Cancel 2 ]
  in
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          (4, map (fun t -> Push t) (int_range 0 30));
          (2, return Pop);
          (3, map (fun i -> Cancel i) nat);
        ])
  in
  let print ops =
    String.concat " "
      (List.map
         (function
           | Push t -> Printf.sprintf "push%d" t
           | Pop -> "pop"
           | Cancel i -> Printf.sprintf "cancel%d" i)
         ops)
  in
  QCheck.Test.make ~name:"cancel keeps reference pop order" ~count:500
    (QCheck.make ~print QCheck.Gen.(list_size (int_range 0 80) gen_op))
    (fun tail ->
      let q = Event_queue.create ~filler:(-1) in
      (* handles by id; the model holds the live (time, id) pairs, and
         ids are the push order, i.e. the queue's tie-break *)
      let handles = ref [||] in
      let model = ref [] in
      let pop_model () =
        match List.sort compare !model with
        | [] -> None
        | ((t, id) as top) :: _ ->
          model := List.filter (( <> ) top) !model;
          Some (t, id)
      in
      let step = function
        | Push t ->
          let id = Array.length !handles in
          handles := Array.append !handles [| Event_queue.add q ~time:t id |];
          model := (t, id) :: !model;
          true
        | Pop -> Event_queue.pop q = pop_model ()
        | Cancel i ->
          let n = Array.length !handles in
          if n > 0 then begin
            let id = i mod n in
            Event_queue.cancel q !handles.(id);
            model := List.filter (fun (_, j) -> j <> id) !model
          end;
          Event_queue.length q = List.length !model
      in
      List.for_all step (fixed @ tail)
      &&
      let rec drain () =
        match (Event_queue.pop q, pop_model ()) with
        | None, None -> true
        | a, b -> a = b && drain ()
      in
      drain ())

(* --- Sim --- *)

let test_sim_schedule_order () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim ~after:10 (fun () -> log := "b" :: !log);
  Sim.schedule sim ~after:5 (fun () -> log := "a" :: !log);
  Sim.schedule sim ~after:20 (fun () -> log := "c" :: !log);
  Sim.run sim;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check int) "final time" 20 (Sim.now sim)

let test_sim_nested_schedule () =
  let sim = Sim.create () in
  let hits = ref [] in
  Sim.schedule sim ~after:10 (fun () ->
      hits := Sim.now sim :: !hits;
      Sim.schedule sim ~after:5 (fun () -> hits := Sim.now sim :: !hits));
  Sim.run sim;
  Alcotest.(check (list int)) "nested times" [ 10; 15 ] (List.rev !hits)

let test_sim_cancel_timer () =
  let sim = Sim.create () in
  let log = ref [] in
  let timer = Sim.schedule_timer sim ~after:10 (fun () -> log := "timeout" :: !log) in
  Sim.schedule sim ~after:10 (fun () -> log := "same time" :: !log);
  Sim.schedule sim ~after:5 (fun () ->
      log := "answer" :: !log;
      Sim.cancel sim timer);
  Sim.run sim;
  Sim.cancel sim timer;
  Alcotest.(check (list string)) "timer never ran" [ "answer"; "same time" ]
    (List.rev !log);
  Alcotest.(check int) "cancelled timer not counted" 2 (Sim.events sim)

let test_sim_run_until () =
  let sim = Sim.create () in
  let fired = ref 0 in
  for i = 1 to 10 do
    Sim.schedule sim ~after:(i * 10) (fun () -> incr fired)
  done;
  Sim.run_until sim 50;
  Alcotest.(check int) "five fired" 5 !fired;
  Alcotest.(check int) "clock at limit" 50 (Sim.now sim);
  Sim.run_until sim 100;
  Alcotest.(check int) "all fired" 10 !fired

let test_sim_run_until_past_queue () =
  let sim = Sim.create () in
  Sim.schedule sim ~after:5 (fun () -> ());
  Sim.run_until sim 1_000;
  Alcotest.(check int) "clock advanced to limit" 1_000 (Sim.now sim)

let test_sim_negative_after () =
  let sim = Sim.create () in
  let t = ref (-1) in
  Sim.schedule sim ~after:(-5) (fun () -> t := Sim.now sim);
  Sim.run sim;
  Alcotest.(check int) "clamped to now" 0 !t

let test_time_helpers () =
  Alcotest.(check int) "ms" 3_000 (Sim.ms 3);
  Alcotest.(check int) "sec" 2_000_000 (Sim.sec 2);
  Alcotest.(check (float 1e-9)) "to_ms" 1.5 (Sim.to_ms 1_500)

(* --- Cpu --- *)

let test_cpu_parallel_cores () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim ~cores:2 in
  let finish = ref [] in
  for _ = 1 to 2 do
    Cpu.run cpu ~cost:100 (fun () -> finish := Sim.now sim :: !finish)
  done;
  Sim.run sim;
  (* Both ran in parallel on separate cores. *)
  Alcotest.(check (list int)) "both at t=100" [ 100; 100 ] !finish

let test_cpu_queueing () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim ~cores:1 in
  let finish = ref [] in
  for _ = 1 to 3 do
    Cpu.run cpu ~cost:100 (fun () -> finish := Sim.now sim :: !finish)
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "serialized" [ 100; 200; 300 ] (List.rev !finish)

let test_cpu_zero_cost () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim ~cores:1 in
  let ran = ref false in
  Cpu.run cpu ~cost:0 (fun () -> ran := true);
  Sim.run sim;
  Alcotest.(check bool) "ran without core" true !ran

let test_cpu_utilization () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim ~cores:2 in
  Cpu.run cpu ~cost:100 (fun () -> ());
  Sim.run_until sim 100;
  let u = Cpu.utilization cpu ~since:0 in
  Alcotest.(check (float 1e-9)) "half busy" 0.5 u

(* Saturated, the run queue starts jobs in submission order whatever
   their costs: each job starts no earlier than the one submitted before
   it. *)
let test_cpu_fifo_starts () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim ~cores:2 in
  let starts = Array.make 40 (-1) in
  for i = 0 to 39 do
    let cost = 1 + (i * 37 mod 100) in
    Cpu.run cpu ~cost (fun () -> starts.(i) <- Sim.now sim - cost)
  done;
  Alcotest.(check int) "38 queued" 38 (Cpu.queued cpu);
  Sim.run sim;
  Array.iteri
    (fun i s ->
      if i > 0 && s < starts.(i - 1) then
        Alcotest.failf "job %d started at %d, before job %d at %d" i s (i - 1)
          starts.(i - 1))
    starts

(* A long-lived run queue must not promote the jobs that pass through it
   (see Gg_util.Fifo): a closed loop keeping ~4 jobs outstanding on 2
   cores, each job carrying a small payload, promotes a few percent of
   what it allocates at most (0.05% with the ring). A linked queue that
   keeps its dequeued cells' links promotes nearly every job, 49% of the
   words. *)
let test_cpu_queue_promotes_little () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim ~cores:2 in
  let left = ref 100_000 in
  let rec submit () =
    if !left > 0 then begin
      decr left;
      let payload = Array.make 6 !left in
      Cpu.run cpu
        ~cost:(1 + (!left mod 7))
        (fun () ->
          ignore (Sys.opaque_identity payload);
          submit ())
    end
  in
  let s0 = Gc.quick_stat () in
  for _ = 1 to 4 do
    submit ()
  done;
  Sim.run sim;
  let s1 = Gc.quick_stat () in
  let minor = s1.Gc.minor_words -. s0.Gc.minor_words
  and promoted = s1.Gc.promoted_words -. s0.Gc.promoted_words in
  if promoted > 0.05 *. minor then
    Alcotest.failf "promoted %.0f of %.0f minor words (%.1f%%)" promoted minor
      (100. *. promoted /. minor)

(* --- Net --- *)

let make_net ?(jitter_frac = 0.0) ?loss ?dup ?reorder ?bandwidth_bps topo =
  let sim = Sim.create () in
  let rng = Gg_util.Rng.create 99 in
  let net =
    Net.create sim ~rng ~topology:topo ~jitter_frac ?loss ?dup ?reorder
      ?bandwidth_bps ()
  in
  (sim, net)

let test_net_latency () =
  let topo = Topology.china3 () in
  let sim, net = make_net topo in
  let arrival = ref 0 in
  Net.send net ~src:0 ~dst:1 ~bytes:0 (fun () -> arrival := Sim.now sim);
  Sim.run sim;
  (* Zhangjiakou -> Chengdu one-way is 30 ms. *)
  Alcotest.(check int) "one-way delay" (Sim.ms 30) !arrival

let test_net_bandwidth_serialization () =
  let topo = Topology.china3 () in
  let sim, net = make_net ~bandwidth_bps:1_000_000 topo in
  (* 1 Mbps: 125_000 bytes take 1 s to serialize. *)
  let arrival = ref 0 in
  Net.send net ~src:0 ~dst:1 ~bytes:125_000 (fun () -> arrival := Sim.now sim);
  Sim.run sim;
  Alcotest.(check int) "tx + latency" (Sim.sec 1 + Sim.ms 30) !arrival

let test_net_egress_queueing () =
  let topo = Topology.china3 () in
  let sim, net = make_net ~bandwidth_bps:1_000_000 topo in
  let arrivals = ref [] in
  for _ = 1 to 2 do
    Net.send net ~src:0 ~dst:1 ~bytes:125_000 (fun () ->
        arrivals := Sim.now sim :: !arrivals)
  done;
  Sim.run sim;
  (* Second message waits for the pipe: arrives 1 s after the first. *)
  Alcotest.(check (list int))
    "pipe serializes"
    [ Sim.sec 1 + Sim.ms 30; Sim.sec 2 + Sim.ms 30 ]
    (List.rev !arrivals)

let test_net_loss () =
  let topo = Topology.china3 () in
  let sim, net = make_net ~loss:1.0 topo in
  let got = ref false in
  Net.send net ~src:0 ~dst:1 ~bytes:10 (fun () -> got := true);
  Sim.run sim;
  Alcotest.(check bool) "lost" false !got

let test_net_dup () =
  let topo = Topology.china3 () in
  let sim, net = make_net ~dup:1.0 topo in
  let got = ref 0 in
  Net.send net ~src:0 ~dst:1 ~bytes:10 (fun () -> incr got);
  Sim.run sim;
  Alcotest.(check int) "delivered twice" 2 !got

let test_net_down_node () =
  let topo = Topology.china3 () in
  let sim, net = make_net topo in
  Net.set_down net 1 true;
  let got = ref false in
  Net.send net ~src:0 ~dst:1 ~bytes:10 (fun () -> got := true);
  Sim.run sim;
  Alcotest.(check bool) "down node receives nothing" false !got;
  (* Down at delivery time also drops. *)
  Net.set_down net 1 false;
  Net.send net ~src:0 ~dst:1 ~bytes:10 (fun () -> got := true);
  Sim.schedule sim ~after:1 (fun () -> Net.set_down net 1 true);
  Sim.run sim;
  Alcotest.(check bool) "crashed before delivery" false !got

let test_net_dup_down_interaction () =
  (* Regression: a message duplicated in flight must not leak into a
     node that crashes before delivery. Both copies re-check the down
     state at delivery time, so neither arrives. *)
  let topo = Topology.china3 () in
  let sim, net = make_net ~dup:1.0 topo in
  let got = ref 0 in
  Net.send net ~src:0 ~dst:1 ~bytes:10 (fun () -> incr got);
  Sim.schedule sim ~after:1 (fun () -> Net.set_down net 1 true);
  Sim.run sim;
  Alcotest.(check int) "no copy reaches the downed node" 0 !got;
  (* And after recovery, fresh traffic (still dup=1.0) flows again. *)
  Net.set_down net 1 false;
  Net.send net ~src:0 ~dst:1 ~bytes:10 (fun () -> incr got);
  Sim.run sim;
  Alcotest.(check int) "recovered node gets both copies" 2 !got

let test_net_knob_mutation () =
  (* The chaos checker flips fault rates mid-run; setters must take
     effect immediately and clamp out-of-range values. *)
  let topo = Topology.china3 () in
  let sim, net = make_net topo in
  Net.set_loss net 1.0;
  Alcotest.(check (float 0.0)) "loss readable" 1.0 (Net.loss net);
  let got = ref 0 in
  Net.send net ~src:0 ~dst:1 ~bytes:1 (fun () -> incr got);
  Sim.run sim;
  Alcotest.(check int) "full loss drops" 0 !got;
  Net.set_loss net 0.0;
  Net.send net ~src:0 ~dst:1 ~bytes:1 (fun () -> incr got);
  Sim.run sim;
  Alcotest.(check int) "restored rate delivers" 1 !got;
  Net.set_dup net 2.0;
  Alcotest.(check (float 0.0)) "dup clamped to 1" 1.0 (Net.dup net);
  Net.set_reorder net (-0.5);
  Alcotest.(check (float 0.0)) "reorder clamped to 0" 0.0 (Net.reorder net);
  Net.set_jitter_frac net (-1.0);
  Alcotest.(check (float 0.0)) "jitter clamped to 0" 0.0 (Net.jitter_frac net)

let test_fault_schedule_install_and_format () =
  let topo = Topology.china3 () in
  let sim, net = make_net topo in
  let crashed = ref [] and recovered = ref [] in
  let sched =
    [
      { Fault.at_ms = 5; action = Fault.Loss 0.5 };
      { Fault.at_ms = 10; action = Fault.Crash 2 };
      { Fault.at_ms = 20; action = Fault.Recover 2 };
    ]
  in
  Fault.install net
    ~on_crash:(fun n -> crashed := n :: !crashed)
    ~on_recover:(fun n -> recovered := n :: !recovered)
    sched;
  Sim.run sim;
  Alcotest.(check (float 0.0)) "loss knob applied" 0.5 (Net.loss net);
  Alcotest.(check (list int)) "crash hook fired" [ 2 ] !crashed;
  Alcotest.(check (list int)) "recover hook fired" [ 2 ] !recovered;
  Alcotest.(check string) "reproducer format"
    "loss:0.500@5ms,crash:2@10ms,recover:2@20ms"
    (Fault.schedule_to_string sched);
  Alcotest.(check string) "empty schedule" "-" (Fault.schedule_to_string [])

let test_net_wan_accounting () =
  let topo = Topology.china3 () in
  let sim, net = make_net topo in
  Net.send net ~src:0 ~dst:1 ~bytes:100 (fun () -> ());
  Net.send net ~src:0 ~dst:0 ~bytes:100 (fun () -> ());
  Sim.run sim;
  Alcotest.(check int) "wan counts cross-region only" 100 (Net.wan_bytes net);
  Alcotest.(check int) "total counts all" 200 (Net.sent_bytes net);
  Alcotest.(check int) "per-src" 100 (Net.wan_bytes_from net 0);
  Net.reset_accounting net;
  Alcotest.(check int) "reset" 0 (Net.sent_bytes net)

let test_net_broadcast () =
  let topo = Topology.china3 () in
  let sim, net = make_net topo in
  let got = Array.make 3 false in
  Net.broadcast net ~src:0 ~bytes:10 (fun dst () -> got.(dst) <- true);
  Sim.run sim;
  Alcotest.(check (array bool)) "everyone but src" [| false; true; true |] got

(* --- Topology --- *)

let test_topology_china3 () =
  let t = Topology.china3 () in
  Alcotest.(check int) "3 nodes" 3 (Topology.n_nodes t);
  Alcotest.(check int) "symmetric" (Topology.latency t 0 1) (Topology.latency t 1 0);
  Alcotest.(check bool) "cross-region ~30ms" true (Topology.latency t 0 1 >= Sim.ms 20)

let test_topology_scaling () =
  let t = Topology.china 15 in
  Alcotest.(check int) "15 nodes" 15 (Topology.n_nodes t);
  (* Nodes 0 and 5 share region 0 (round robin over 5 regions). *)
  Alcotest.(check int) "same region cheap" 500 (Topology.latency t 0 5)

let test_topology_worldwide () =
  let t = Topology.worldwide 25 in
  Alcotest.(check int) "25 nodes" 25 (Topology.n_nodes t);
  Alcotest.(check bool) "long haul" true (Topology.latency t 0 2 >= Sim.ms 100)

let test_topology_invalid () =
  Alcotest.(check bool) "asymmetric rejected" true
    (try
       ignore
         (Topology.custom ~name:"bad" ~regions:[| "a"; "b" |]
            ~node_region:[| 0; 1 |]
            ~region_latency_us:[| [| 0; 1 |]; [| 2; 0 |] |]);
       false
     with Invalid_argument _ -> true)

let test_topology_nodes_in_region () =
  let t = Topology.china 7 in
  Alcotest.(check (list int)) "region 0 nodes" [ 0; 5 ] (Topology.nodes_in_region t 0);
  Alcotest.(check (list int)) "region 1 nodes" [ 1; 6 ] (Topology.nodes_in_region t 1)

let () =
  Alcotest.run "gg_sim"
    [
      ( "event_queue",
        [
          Alcotest.test_case "ordering" `Quick test_eq_ordering;
          Alcotest.test_case "fifo ties" `Quick test_eq_fifo_ties;
          Alcotest.test_case "interleaved" `Quick test_eq_interleaved;
          Alcotest.test_case "empty" `Quick test_eq_empty;
          Alcotest.test_case "removed events are released" `Quick
            test_eq_releases_removed;
          QCheck_alcotest.to_alcotest prop_eq_cancel_matches_reference;
        ] );
      ( "sim",
        [
          Alcotest.test_case "schedule order" `Quick test_sim_schedule_order;
          Alcotest.test_case "nested schedule" `Quick test_sim_nested_schedule;
          Alcotest.test_case "run_until" `Quick test_sim_run_until;
          Alcotest.test_case "cancelled timer" `Quick test_sim_cancel_timer;
          Alcotest.test_case "run_until past queue" `Quick test_sim_run_until_past_queue;
          Alcotest.test_case "negative after" `Quick test_sim_negative_after;
          Alcotest.test_case "time helpers" `Quick test_time_helpers;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "parallel cores" `Quick test_cpu_parallel_cores;
          Alcotest.test_case "queueing" `Quick test_cpu_queueing;
          Alcotest.test_case "zero cost" `Quick test_cpu_zero_cost;
          Alcotest.test_case "utilization" `Quick test_cpu_utilization;
          Alcotest.test_case "saturated starts in submission order" `Quick
            test_cpu_fifo_starts;
          Alcotest.test_case "run queue promotes little" `Quick
            test_cpu_queue_promotes_little;
        ] );
      ( "net",
        [
          Alcotest.test_case "latency" `Quick test_net_latency;
          Alcotest.test_case "bandwidth" `Quick test_net_bandwidth_serialization;
          Alcotest.test_case "egress queueing" `Quick test_net_egress_queueing;
          Alcotest.test_case "loss" `Quick test_net_loss;
          Alcotest.test_case "duplication" `Quick test_net_dup;
          Alcotest.test_case "down node" `Quick test_net_down_node;
          Alcotest.test_case "dup x down" `Quick test_net_dup_down_interaction;
          Alcotest.test_case "runtime knob mutation" `Quick test_net_knob_mutation;
          Alcotest.test_case "fault schedule" `Quick test_fault_schedule_install_and_format;
          Alcotest.test_case "wan accounting" `Quick test_net_wan_accounting;
          Alcotest.test_case "broadcast" `Quick test_net_broadcast;
        ] );
      ( "topology",
        [
          Alcotest.test_case "china3" `Quick test_topology_china3;
          Alcotest.test_case "china scaling" `Quick test_topology_scaling;
          Alcotest.test_case "worldwide" `Quick test_topology_worldwide;
          Alcotest.test_case "invalid rejected" `Quick test_topology_invalid;
          Alcotest.test_case "nodes_in_region" `Quick test_topology_nodes_in_region;
        ] );
    ]
