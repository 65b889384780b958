(* The cross-group commit protocol of partial replication (DESIGN.md §12).

   Each node merges its group's FRAGMENT of every write set. A
   cross-group transaction (touching several groups, or a local one
   writing only foreign groups) is validated normally at its merge epoch
   [k], but its write-back is deferred: every touched group votes, and
   merge [k + vote_depth] resolves it from the votes. Merge-readiness
   waits for the votes, so the decision is a pure function of agreed
   state. *)

module Topology = Gg_sim.Topology
module Writeset = Gg_crdt.Writeset
module Meta = Gg_crdt.Meta
module Db = Gg_storage.Db
module Table = Gg_storage.Table
module Csn = Gg_storage.Csn
module Row_header = Gg_storage.Row_header
module Itbl = Epoch_merge.Itbl

(* A cross-group transaction between its merge epoch and its
   resolution: this group's fragment and verdict, plus — on the origin
   node — the client transaction to answer. *)
type entry = {
  key : int;  (* packed csn *)
  origin : int;
  groups : int list;  (* touched groups, sorted *)
  frag : Writeset.t;
  mutable local : Txn.abort_reason option;  (* this group's verdict *)
  mutable txn : Txn.t option;
}

type t = {
  part : Partitioning.t;
  topology : Topology.t;
  backup : Backup.t;
  db : Db.t;
  node : int;
  group : int;
  pending : entry list Itbl.t;  (* merge epoch -> unresolved entries *)
  votes : bool Itbl.t array Itbl.t;
      (* merge epoch -> per group: packed csn -> that group's verdict *)
}

type decision = {
  cen : int;
  csn : int;
  n_groups : int;
  txn : Txn.t option;
  abort : Txn.abort_reason option;
}

type epoch = entry Itbl.t

let create part ~topology ~backup ~db ~node =
  if not (Partitioning.enabled part) then None
  else
    Some
      {
        part;
        topology;
        backup;
        db;
        node;
        group = Partitioning.group_of_node part node;
        pending = Itbl.create 16;
        votes = Itbl.create 32;
      }

let group t = t.group

let reset t =
  Itbl.reset t.pending;
  Itbl.reset t.votes

let keeps t ws = Partitioning.touches t.part ~group:t.group ws

let origin (ws : Writeset.t) = ws.Writeset.meta.Meta.csn.Csn.node

(* The members of [groups] and the nodes [extra], ascending, without
   this node. *)
let nodes t ~groups extra =
  let want = Array.make (Topology.n_nodes t.topology) false in
  let add m = want.(m) <- true in
  List.iter (fun g -> List.iter add (Partitioning.members t.part g)) groups;
  List.iter add extra;
  want.(t.node) <- false;
  List.filter (fun m -> want.(m)) (List.init (Array.length want) Fun.id)

let targets t ws = nodes t ~groups:(Partitioning.touched_groups t.part ws) []

let eof_groups t txns =
  List.init (Partitioning.n_groups t.part) (fun g ->
      ( g,
        List.filter (Partitioning.touches t.part ~group:g) txns,
        List.filter (( <> ) t.node) (Partitioning.members t.part g) ))

(* --- votes --- *)

let store t ~cen ~group verdicts =
  let per_group =
    match Itbl.find_opt t.votes cen with
    | Some a -> a
    | None ->
      let a =
        Array.init (Partitioning.n_groups t.part) (fun _ -> Itbl.create 8)
      in
      Itbl.replace t.votes cen a;
      a
  in
  let tbl = per_group.(group) in
  List.iter
    (fun (k, ok) -> if not (Itbl.mem tbl k) then Itbl.replace tbl k ok)
    verdicts

(* Foreign group [group]'s verdict on [key] of epoch [cen]: [Some v] once
   known, [None] while still awaited. A group with no member left in the
   resolving merge's view [members] is read from its durable backup
   record (first-write-wins and written before the crash, so every
   survivor reads the same value); a group that died before voting
   counts as a rejection — the conservative default that keeps survivors
   agreed. *)
let vote_status t ~members ~cen ~group key =
  let direct =
    match Itbl.find_opt t.votes cen with
    | Some a -> Itbl.find_opt a.(group) key
    | None -> None
  in
  if direct <> None then direct
  else if
    List.exists (fun m -> Partitioning.group_of_node t.part m = group) members
  then None
  else
    match Backup.get_votes t.backup ~group ~cen with
    | Some vs -> Some (Option.value ~default:false (List.assoc_opt key vs))
    | None -> Some false

let on_vote t ~lsn ~cen ~group verdicts =
  let live = cen + Partitioning.vote_depth t.part > lsn in
  if live then store t ~cen ~group verdicts;
  live

(* The entries resolving at merge [e], with their merge epoch. *)
let resolving t ~e =
  let rk = e - Partitioning.vote_depth t.part in
  let entries = if rk < 0 then None else Itbl.find_opt t.pending rk in
  (rk, Option.value ~default:[] entries)

let foreign_ok t ~members ~cen ce pred =
  List.for_all
    (fun g -> g = t.group || pred (vote_status t ~members ~cen ~group:g ce.key))
    ce.groups

let ready t ~e ~members =
  let rk, entries = resolving t ~e in
  List.for_all
    (fun ce -> foreign_ok t ~members ~cen:rk ce (( <> ) None))
    entries

let merge_records t ~e txns =
  let own =
    List.fold_left
      (fun n (ws : Writeset.t) ->
        List.fold_left
          (fun n r ->
            if Partitioning.group_of_record t.part r = t.group then n + 1
            else n)
          n ws.Writeset.records)
      0 txns
  in
  let _, entries = resolving t ~e in
  ( own,
    List.fold_left
      (fun n ce -> n + List.length ce.frag.Writeset.records)
      0 entries )

let refetch t ~e ~members =
  let rk, entries = resolving t ~e in
  List.filter_map
    (fun g ->
      let missing =
        g <> t.group
        && List.exists
             (fun ce ->
               List.mem g ce.groups
               && vote_status t ~members ~cen:rk ~group:g ce.key = None)
             entries
      in
      if missing && Backup.get_votes t.backup ~group:g ~cen:rk <> None then
        (* one round trip to the group's nearest member *)
        let best =
          List.fold_left
            (fun a m -> min a (Topology.latency t.topology t.node m))
            max_int
            (Partitioning.members t.part g)
        in
        Some (rk, g, if best = max_int then 0 else 2 * best)
      else None)
    (List.init (Partitioning.n_groups t.part) Fun.id)

let fetched t ~cen ~group =
  Option.iter (store t ~cen ~group) (Backup.get_votes t.backup ~group ~cen)

(* --- merge and resolution --- *)

(* Write back this group's fragment of a globally committed cross-group
   transaction, deferred from its merge epoch [k]. Phase A of merge [k]
   already stamped the headers of the live rows it won (Update/Delete),
   so the data lands only where the header still carries its stamp —
   anywhere else a later epoch's winner superseded it. Inserts went to
   the (since cleared) temporary list, so they materialise here unless a
   newer row or tombstone appeared in the vote window. *)
let apply_deferred t (ws : Writeset.t) =
  let meta = ws.Writeset.meta in
  List.iter
    (fun (r : Writeset.record) ->
      match Db.get_table t.db r.Writeset.table with
      | None -> ()
      | Some table -> (
        let key_str = Writeset.key_str r in
        match (r.Writeset.op, Table.find table key_str) with
        | Writeset.Insert, None -> Epoch_merge.insert_row table r ~key_str meta
        | Writeset.Insert, Some entry ->
          (* an older tombstone revives; any stamp from epoch >= k means
             a later writer superseded this insert *)
          if entry.Table.header.Row_header.cen < meta.Meta.cen then begin
            Epoch_merge.stamp_row table entry meta;
            Table.revive table entry r.Writeset.data
          end
        | (Writeset.Update | Writeset.Delete), None -> ()
        | op, Some entry ->
          let h = entry.Table.header in
          if
            h.Row_header.cen = meta.Meta.cen
            && Csn.equal h.Row_header.csn meta.Meta.csn
            && not h.Row_header.deleted
          then
            if op = Writeset.Delete then Table.delete table entry
            else Table.write table entry r.Writeset.data))
    ws.Writeset.records

let resolve t ~e ~members =
  let rk, entries = resolving t ~e in
  let decisions =
    List.map
      (fun (ce : entry) ->
        let abort =
          match ce.local with
          | Some _ as r -> r
          | None ->
            if foreign_ok t ~members ~cen:rk ce (( = ) (Some true)) then None
            else Some Txn.Cross_abort
        in
        if abort = None then apply_deferred t ce.frag;
        let n_groups = List.length ce.groups in
        { cen = rk; csn = ce.key; n_groups; txn = ce.txn; abort })
      (List.sort (fun a b -> compare a.key b.key) entries)
  in
  if rk >= 0 then begin
    Itbl.remove t.pending rk;
    Itbl.remove t.votes rk
  end;
  decisions

let fragments t full =
  let ep = Itbl.create 16 in
  let frags =
    List.map
      (fun (ws : Writeset.t) ->
        let frag = Partitioning.fragment t.part ~group:t.group ws in
        let groups = Partitioning.touched_groups t.part ws in
        (match groups with
        | [] -> ()
        | [ g ] when g = t.group -> ()
        | _ ->
          let key = Epoch_merge.csn_key ws in
          Itbl.replace ep key
            { key; origin = origin ws; groups; frag; local = None;
              txn = None });
        frag)
      full
  in
  (ep, frags)

let deferred ep ws = Itbl.mem ep (Epoch_merge.csn_key ws)

let hold ep (txn : Txn.t) =
  match Itbl.find_opt ep (Epoch_merge.pack_csn txn.Txn.csn) with
  | Some (ce : entry) ->
    ce.txn <- Some txn;
    true
  | None -> false

(* This group's members each compute the identical, csn-sorted vote
   list, record it durably so a lost vote (or a dead group) can be
   repaired from the backup, and only the group's first member — its
   speaker — puts it on the wire: the N-1 other copies are redundant,
   and at 200 replicas that redundancy is what would dominate the WAN
   bill. A dead or lagging speaker is covered by the stall-repair
   refetch. *)
let votes t ep m ~cen full =
  let entries =
    Itbl.fold
      (fun _ ce acc ->
        ce.local <- Epoch_merge.verdict m ce.frag;
        ce :: acc)
      ep []
  in
  if entries <> [] then Itbl.replace t.pending cen entries;
  let mine = List.filter (fun ce -> List.mem t.group ce.groups) entries in
  (* A write set touching ONLY this group but from a foreign origin
     merges undeferred here, yet its origin deferred it and waits for
     this group's verdict. *)
  let vote_only =
    List.filter
      (fun (ws : Writeset.t) ->
        (not (deferred ep ws))
        && Partitioning.group_of_node t.part (origin ws) <> t.group
        && Partitioning.touched_groups t.part ws = [ t.group ])
      full
  in
  let verdicts =
    List.sort compare
      (List.map (fun ce -> (ce.key, ce.local = None)) mine
      @ List.map
          (fun ws -> (Epoch_merge.csn_key ws, Epoch_merge.committed m ws))
          vote_only)
  in
  if verdicts = [] then ([], [])
  else begin
    Backup.put_votes t.backup ~group:t.group ~cen verdicts;
    let speaker =
      match Partitioning.members t.part t.group with
      | m0 :: _ -> m0
      | [] -> t.node
    in
    if speaker <> t.node then (verdicts, [])
    else
      ( verdicts,
        nodes t
          ~groups:
            (List.concat_map
               (fun ce -> List.filter (( <> ) t.group) ce.groups)
               mine)
          (List.map (fun ce -> ce.origin) mine @ List.map origin vote_only) )
  end
