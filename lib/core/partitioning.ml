(* Partition map for partial replication (DESIGN.md §12): nodes are
   assigned to replica groups, keys hash onto groups, and write-set
   dissemination/merging is scoped to the groups a transaction touches.
   The map is a pure function of the topology and the [Params.
   partitioning] mode, so every node computes the identical map. *)

module Topology = Gg_sim.Topology
module Writeset = Gg_crdt.Writeset
module Table = Gg_storage.Table

type t = {
  mode : Params.partitioning;
  n_groups : int;
  group_of_node : int array;
  members : int list array;  (* ascending node ids per group *)
  depth : int;
}

(* Vote pipeline depth: cross-group transactions of epoch [k] resolve at
   merge [k + depth]. Votes for epoch k are emitted after the voter's
   merge of k (itself ~one max inter-group latency after the seal) and
   travel one more hop, so the resolver must lag by at least two
   inter-group latencies' worth of epochs; +2 epochs of slack covers
   seal/merge skew. With latency >> epoch this keeps steady-state
   merging non-blocking instead of letting merges fall behind seals
   without bound. *)
let compute_depth ~topology ~epoch_us group_of_node n_groups =
  if n_groups <= 1 then 0
  else begin
    let n = Topology.n_nodes topology in
    let maxlat = ref 0 in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if group_of_node.(i) <> group_of_node.(j) then
          maxlat := max !maxlat (Topology.latency topology i j)
      done
    done;
    2 + (((2 * !maxlat) + epoch_us - 1) / epoch_us)
  end

let make ~topology ~epoch_us (mode : Params.partitioning) =
  let n = Topology.n_nodes topology in
  let group_of_node =
    match mode with
    | Params.P_none -> Array.make n 0
    | Params.P_region ->
      (* Rank each node's region among the regions that actually have
         nodes, so group ids are dense even when the topology declares
         more regions than a small cluster populates. *)
      let nr = Topology.n_regions topology in
      let populated = Array.make nr false in
      for i = 0 to n - 1 do
        populated.(Topology.region_of topology i) <- true
      done;
      let rank = Array.make nr (-1) in
      let next = ref 0 in
      for r = 0 to nr - 1 do
        if populated.(r) then begin
          rank.(r) <- !next;
          incr next
        end
      done;
      Array.init n (fun i -> rank.(Topology.region_of topology i))
    | Params.P_hash k ->
      let g = max 1 (min k n) in
      Array.init n (fun i -> i mod g)
  in
  let n_groups = 1 + Array.fold_left max 0 group_of_node in
  let members = Array.make n_groups [] in
  for i = n - 1 downto 0 do
    members.(group_of_node.(i)) <- i :: members.(group_of_node.(i))
  done;
  let depth = compute_depth ~topology ~epoch_us group_of_node n_groups in
  { mode; n_groups; group_of_node; members; depth }

let mode t = t.mode
let n_groups t = t.n_groups
let enabled t = t.n_groups > 1
let vote_depth t = t.depth
let group_of_node t node = t.group_of_node.(node)
let members t group = t.members.(group)

(* Key placement reuses the storage layer's deterministic key hash. *)
let group_of_key t key_str = Table.key_hash key_str mod t.n_groups
let group_of_record t r = group_of_key t (Writeset.key_str r)

let touched_groups t (ws : Writeset.t) =
  let seen = Array.make t.n_groups false in
  List.iter (fun r -> seen.(group_of_record t r) <- true) ws.Writeset.records;
  List.iter
    (fun (_, k) -> seen.(group_of_key t k) <- true)
    ws.Writeset.read_keys;
  let acc = ref [] in
  for g = t.n_groups - 1 downto 0 do
    if seen.(g) then acc := g :: !acc
  done;
  !acc

let touches t ~group (ws : Writeset.t) =
  List.exists (fun r -> group_of_record t r = group) ws.Writeset.records
  || List.exists (fun (_, k) -> group_of_key t k = group) ws.Writeset.read_keys

(* Restriction of a write set to one group's keys. Returns the original
   write set unchanged (preserving its memoized caches) when nothing is
   filtered out, which is the common case for single-group
   transactions. *)
let fragment t ~group (ws : Writeset.t) =
  if not (enabled t) then ws
  else begin
    let records =
      List.filter (fun r -> group_of_record t r = group) ws.Writeset.records
    in
    let read_keys =
      List.filter (fun (_, k) -> group_of_key t k = group) ws.Writeset.read_keys
    in
    if
      List.length records = List.length ws.Writeset.records
      && List.length read_keys = List.length ws.Writeset.read_keys
    then ws
    else Writeset.make ~read_keys ~meta:ws.Writeset.meta ~records ()
  end
