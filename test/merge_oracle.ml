(* Test-only oracle for [Epoch_merge]: the per-shard kernel it replaced
   (record items bucketed by key hash, per-shard dead/touched/claims
   tables reduced in shard order, every phase re-resolving each record
   through [Db.get_table] and [Table.find]), copied verbatim. The only
   edits are the [open] below; the committed-insert call, which now
   passes [~key_str] and ignores the returned entry; and, since the
   host-side sharding it relied on is gone, the two pool sharding calls
   replaced by their single-shard result [[ f xs ]] and the two
   job-width helpers removed. [test_merge] holds the new kernel equal to
   this one over random epochs. *)

open Geogauss

(* The per-epoch intra-node merge kernel: DeltaCRDTMerge pre-write
   (phase A), OCC validation (phase B), the optional SSI pivot pass and
   write-back (phase C) — extracted from [Node.do_merge] so that

   - phases A and B can shard across OCaml domains while staying
     byte-identical to the sequential pass (DESIGN.md §10), and
   - the kernel can be driven in isolation (bench `merge`, unit tests)
     without a cluster around it.

   Parallel-safety argument, phase A. Records are bucketed by
   [Table.key_hash] of their encoded key, with a shard count dividing
   [Table.temp_shard_count]; hence (1) all records of one row land in
   one shard, so [Merge.merge_header] — a per-row lattice join, commut-
   ative by Lemma 2 — runs conflict-free; (2) two shards never touch
   the same temp hash shard, so concurrent [temp_add] is race-free;
   (3) the main index is only read (entry lookups; [Row_header.stamp]
   mutates same-shard headers only, and [deleted] is never written in
   phase A). Cross-shard effects — conflict marks and [Table.touch] —
   are accumulated per shard and reduced on the calling domain in a
   fixed order.

   Determinism of the marks. The sequential pass keeps the FIRST
   failing record's reason per write set (global record order). Shards
   therefore record (global record index, reason) for the first local
   failure per write set, and the reduce keeps the entry with the
   smallest index — reproducing the sequential choice exactly.

   Phase B is read-only over the post-A headers (the [dead] table is
   frozen after the reduce); per-transaction verdicts go to disjoint
   array slots and are folded sequentially. The SSI pass and phase C
   mutate shared index structures (ordered map, secondary indexes) and
   stay sequential — they are a small fraction of the record work. *)

module Db = Gg_storage.Db
module Table = Gg_storage.Table
module Csn = Gg_storage.Csn
module Row_header = Gg_storage.Row_header
module Writeset = Gg_crdt.Writeset
module Merge = Gg_crdt.Merge
module Meta = Gg_crdt.Meta
module Column = Gg_crdt.Column
module Pool = Gg_par.Pool

module Itbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) (b : int) = a = b
  let hash = Hashtbl.hash
end)

module Stbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

let node_bits = 10
let pack_csn (c : Csn.t) = (c.Csn.ts lsl node_bits) lor c.Csn.node
let csn_key (ws : Writeset.t) = pack_csn ws.Writeset.meta.Meta.csn
let pack_row ~table ~key_str = String.concat "\x00" [ table; key_str ]

type t = {
  dead : (int * Txn.abort_reason) Itbl.t;
      (* csn -> (global record index of the first failure, reason);
         phase B / SSI marks use index [max_int] (they run post-reduce) *)
  committed_set : unit Itbl.t;  (* csn *)
  n_records : int;
  jobs_used : int;
}

let n_records t = t.n_records
let n_committed t = Itbl.length t.committed_set
let n_dead t = Itbl.length t.dead
let jobs_used t = t.jobs_used
let committed t ws = Itbl.mem t.committed_set (csn_key ws)

let abort_reason t ws =
  match Itbl.find_opt t.dead (csn_key ws) with
  | Some (_, reason) -> reason
  | None -> Txn.Write_conflict

(* One record of the flattened epoch, tagged with its global position
   (the sequential iteration order over write sets and their records). *)
type item = { gi : int; ws : Writeset.t; r : Writeset.record }

let phase_a ~db ~jobs:_ ~level items =
  let column = level = Params.Column in
  let shard_body items =
    (* csn -> (first failing record's global index, reason), plus the
       names of tables whose committed headers this shard stamped *)
    let dead_local : (int * Txn.abort_reason) Itbl.t = Itbl.create 64 in
    let touched : unit Stbl.t = Stbl.create 8 in
    (* Column mode: the join of each live row's update/delete claims —
       names the header winner and whether it is a tombstone. Rows are
       shard-confined, so the per-shard tables are disjoint and the
       reduce is a plain union. *)
    let claims : Column.claim Stbl.t = Stbl.create (if column then 64 else 1) in
    let mark gi ws reason =
      let k = csn_key ws in
      if not (Itbl.mem dead_local k) then Itbl.replace dead_local k (gi, reason)
    in
    let claim_row ~table ~key_str ~meta ~delete =
      if column then
        let rk = pack_row ~table ~key_str in
        Stbl.replace claims rk
          (Column.claim_join_opt
             (Stbl.find_opt claims rk)
             (Column.claim ~meta ~delete))
    in
    List.iter
      (fun { gi; ws; r } ->
        let meta = ws.Writeset.meta in
        match Db.get_table db r.Writeset.table with
        | None -> mark gi ws (Txn.Constraint_violation "unknown table")
        | Some table -> (
          let key_str = Writeset.key_str r in
          match r.Writeset.op with
          | Writeset.Insert -> (
            match Table.find_live table key_str with
            | Some _ -> mark gi ws (Txn.Constraint_violation "duplicate key")
            | None -> (
              let temp = Table.temp_add table ~key:r.Writeset.key ~key_str in
              match Merge.merge_header temp.Table.header ~meta with
              | Merge.Win | Merge.Already -> ()
              | Merge.Lose -> mark gi ws Txn.Write_conflict))
          | Writeset.Update | Writeset.Delete -> (
            match Table.find table key_str with
            | None -> mark gi ws Txn.Row_deleted
            | Some entry when entry.Table.header.Row_header.deleted ->
              mark gi ws Txn.Row_deleted
            | Some entry -> (
              claim_row ~table:r.Writeset.table ~key_str ~meta
                ~delete:(r.Writeset.op = Writeset.Delete);
              match Merge.merge_header entry.Table.header ~meta with
              | Merge.Win ->
                (* In-place stamp of a committed row's header: the digest
                   changes even if this transaction later fails validation
                   and Phase C never rewrites the row. The touch itself is
                   deferred to the reduce (it mutates the table's version
                   counter). *)
                Stbl.replace touched r.Writeset.table ()
              | Merge.Already -> ()
              | Merge.Lose ->
                (* Column mode lets losing updates live on: each of their
                   cells resolves independently (validation instead asks
                   whether a tombstone won the row). Losing deletes still
                   conflict — a delete is all-or-nothing. *)
                if not (column && r.Writeset.op = Writeset.Update) then
                  mark gi ws Txn.Write_conflict))))
      items;
    (dead_local, touched, claims)
  in
  let shard_results = [ shard_body items ] in
  let dead : (int * Txn.abort_reason) Itbl.t = Itbl.create 64 in
  let claims : Column.claim Stbl.t = Stbl.create (if column then 64 else 1) in
  List.iter
    (fun (dead_local, touched, claims_local) ->
      Itbl.iter
        (fun k ((gi, _) as v) ->
          match Itbl.find_opt dead k with
          | Some (gi', _) when gi' <= gi -> ()
          | Some _ | None -> Itbl.replace dead k v)
        dead_local;
      Stbl.iter (fun rk c -> Stbl.replace claims rk c) claims_local;
      Stbl.iter (fun name () -> Table.touch (Db.get_table_exn db name)) touched)
    shard_results;
  (dead, claims)

let phase_b ~db ~jobs ~dead ~level ~claims txns_arr =
  let column = level = Params.Column in
  let holds_all (ws : Writeset.t) =
    let meta = ws.Writeset.meta in
    List.for_all
      (fun (r : Writeset.record) ->
        match Db.get_table db r.Writeset.table with
        | None -> false
        | Some table -> (
          let key_str = Writeset.key_str r in
          if column && r.Writeset.op = Writeset.Update then
            (* Column mode: an update holds as long as no tombstone won
               the row — every surviving update commits and resolves
               cell by cell in phase C. A live write set's rows all
               reached phase A's claim join, so the lookup hits. *)
            match
              Stbl.find_opt claims
                (pack_row ~table:r.Writeset.table ~key_str)
            with
            | Some c -> not c.Column.c_delete
            | None -> false
          else
            let header =
              match r.Writeset.op with
              | Writeset.Insert ->
                Option.map (fun e -> e.Table.header) (Table.temp_find table key_str)
              | Writeset.Update | Writeset.Delete ->
                Option.map (fun e -> e.Table.header) (Table.find table key_str)
            in
            match header with
            | Some h -> Csn.equal h.Row_header.csn meta.Meta.csn
            | None -> false))
      ws.Writeset.records
  in
  let n = Array.length txns_arr in
  let verdicts = Array.make n false in
  let validate idxs =
    List.iter
      (fun i ->
        let ws = txns_arr.(i) in
        if not (Itbl.mem dead (csn_key ws)) then verdicts.(i) <- holds_all ws)
      idxs
  in
  (* Round-robin index shards: every [validate] reads frozen state and
     writes disjoint [verdicts] slots, so any partition works — this one
     is deterministic and balanced. *)
  (if jobs = 1 then validate (List.init n Fun.id)
   else
     ignore
       [ validate (List.init n Fun.id) ]);
  verdicts

let ssi_pass ~dead ~committed_set txns =
  let writes_of : int list Stbl.t = Stbl.create 64 in
  let reads_of : int list Stbl.t = Stbl.create 64 in
  let add tbl key v =
    Stbl.replace tbl key (v :: Option.value ~default:[] (Stbl.find_opt tbl key))
  in
  List.iter
    (fun (ws : Writeset.t) ->
      let k = csn_key ws in
      if Itbl.mem committed_set k then begin
        List.iter
          (fun (r : Writeset.record) ->
            add writes_of
              (pack_row ~table:r.Writeset.table ~key_str:(Writeset.key_str r))
              k)
          ws.Writeset.records;
        List.iter
          (fun (table, key_str) -> add reads_of (pack_row ~table ~key_str) k)
          ws.Writeset.read_keys
      end)
    txns;
  let others tbl key k =
    List.exists (fun k' -> k' <> k) (Option.value ~default:[] (Stbl.find_opt tbl key))
  in
  List.iter
    (fun (ws : Writeset.t) ->
      let k = csn_key ws in
      if Itbl.mem committed_set k then begin
        let outgoing =
          List.exists
            (fun (table, key_str) -> others writes_of (pack_row ~table ~key_str) k)
            ws.Writeset.read_keys
        in
        let incoming =
          List.exists
            (fun (r : Writeset.record) ->
              others reads_of
                (pack_row ~table:r.Writeset.table ~key_str:(Writeset.key_str r))
                k)
            ws.Writeset.records
        in
        if outgoing && incoming then begin
          Itbl.remove committed_set k;
          Itbl.replace dead k (max_int, Txn.Ssi_conflict)
        end
      end)
    txns

(* Column mode: per-(row, column) winner among the COMMITTED updates.
   The committed set is itself order-independent (phases A/B), so the
   joins here are too; aborted writers never claim cells. *)
let cell_winners txns committed_set =
  let cells : Column.cell option array Stbl.t = Stbl.create 64 in
  List.iter
    (fun (ws : Writeset.t) ->
      if Itbl.mem committed_set (csn_key ws) then
        let meta = ws.Writeset.meta in
        List.iter
          (fun (r : Writeset.record) ->
            if r.Writeset.op = Writeset.Update then begin
              let rk =
                pack_row ~table:r.Writeset.table ~key_str:(Writeset.key_str r)
              in
              let n = Array.length r.Writeset.data in
              let arr =
                match Stbl.find_opt cells rk with
                | Some a when Array.length a >= n -> a
                | Some a ->
                  let a' = Array.make n None in
                  Array.blit a 0 a' 0 (Array.length a);
                  Stbl.replace cells rk a';
                  a'
                | None ->
                  let a = Array.make n None in
                  Stbl.replace cells rk a;
                  a
              in
              Array.iteri
                (fun i v ->
                  if Column.covers ~cols:r.Writeset.cols i then
                    arr.(i) <-
                      Some (Column.join_opt arr.(i) (Column.cell ~meta v)))
                r.Writeset.data
            end)
          ws.Writeset.records)
    txns;
  cells

let phase_c ~db ~defer ~level txns committed_set =
  let cells =
    if level = Params.Column then Some (cell_winners txns committed_set)
    else None
  in
  List.iter
    (fun (ws : Writeset.t) ->
      if Itbl.mem committed_set (csn_key ws) && not (defer ws) then begin
        let meta = ws.Writeset.meta in
        List.iter
          (fun (r : Writeset.record) ->
            let table = Db.get_table_exn db r.Writeset.table in
            let key_str = Writeset.key_str r in
            match r.Writeset.op with
            | Writeset.Insert -> (
              match Table.find table key_str with
              | Some entry ->
                (* tombstone revival *)
                Row_header.stamp entry.Table.header ~sen:meta.Meta.sen
                  ~csn:meta.Meta.csn ~cen:meta.Meta.cen;
                Table.revive table entry r.Writeset.data
              | None ->
                let temp = Option.get (Table.temp_find table key_str) in
                ignore
                  (Table.insert_committed table ~key:r.Writeset.key ~key_str
                     ~data:r.Writeset.data ~header:temp.Table.header))
            | Writeset.Update -> (
              let entry = Option.get (Table.find table key_str) in
              match cells with
              | None -> Table.write table entry r.Writeset.data
              | Some cells ->
                (* Write only the cells this transaction won; winners are
                   unique per cell, so the sequential order of committed
                   writers cannot clobber one another and the final row
                   is the per-column join whatever the order. A record
                   that wins no cell leaves the row (and its version
                   count) untouched on every replica alike. *)
                let arr =
                  Stbl.find cells
                    (pack_row ~table:r.Writeset.table ~key_str)
                in
                let out = ref None in
                Array.iteri
                  (fun i v ->
                    if
                      Column.covers ~cols:r.Writeset.cols i
                      && i < Array.length entry.Table.data
                      && i < Array.length arr
                    then
                      match arr.(i) with
                      | Some c
                        when Csn.equal c.Column.meta.Meta.csn meta.Meta.csn ->
                        let data =
                          match !out with
                          | Some d -> d
                          | None ->
                            let d = Array.copy entry.Table.data in
                            out := Some d;
                            d
                        in
                        data.(i) <- v
                      | _ -> ())
                  r.Writeset.data;
                match !out with
                | Some data -> Table.write table entry data
                | None -> ())
            | Writeset.Delete ->
              let entry = Option.get (Table.find table key_str) in
              Table.delete table entry)
          ws.Writeset.records
      end)
    txns

let run ?(threshold = Params.default.Params.merge_par_threshold)
    ?(defer = fun _ -> false) ?(level = Params.Row) ~db ~jobs ~ssi txns =
  (* Flatten to (global index, ws, record) in the sequential iteration
     order — the order every determinism argument above is stated in. *)
  let items =
    let gi = ref (-1) in
    List.concat_map
      (fun (ws : Writeset.t) ->
        List.map
          (fun r ->
            incr gi;
            { gi = !gi; ws; r })
          ws.Writeset.records)
      txns
  in
  let n_records = List.length items in
  let jobs = if n_records < max 1 threshold then 1 else jobs in
  let dead, claims = phase_a ~db ~jobs ~level items in
  let txns_arr = Array.of_list txns in
  let verdicts = phase_b ~db ~jobs ~dead ~level ~claims txns_arr in
  (* Sequential fold of the verdicts, in write-set order — identical to
     the sequential phase B's mark/commit interleaving (a ws already in
     [dead] keeps its phase-A reason; the rest split on the verdict). *)
  let committed_set : unit Itbl.t = Itbl.create 64 in
  Array.iteri
    (fun i ws ->
      let k = csn_key ws in
      if not (Itbl.mem dead k) then
        if verdicts.(i) then Itbl.replace committed_set k ()
        else Itbl.replace dead k (max_int, Txn.Write_conflict))
    txns_arr;
  if ssi then ssi_pass ~dead ~committed_set txns;
  phase_c ~db ~defer ~level txns committed_set;
  Db.temp_clear_all db;
  { dead; committed_set; n_records; jobs_used = jobs }
