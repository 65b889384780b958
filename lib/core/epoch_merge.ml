(* The per-epoch intra-node merge kernel: DeltaCRDTMerge pre-write
   (phase A), OCC validation (phase B), the optional SSI pivot pass and
   write-back (phase C) — extracted from [Node.do_merge] so the kernel
   can be driven in isolation (unit tests, the e2e replay) without a
   cluster around it.

   The epoch is flattened into one [slot] per record, in record order
   (write sets in list order, each write set's records in order). Phase
   A resolves every record exactly once — its table, its entry and its
   pre-write outcome — into its slot; phases B and C read the slot and
   never look the record up again, except that phase C re-finds an
   insert's key before installing it (see [write_back]).

   Every phase is one sequential pass in that order (DESIGN.md §10):

   - Phase A visits the slots in record order, so the per-row header
     joins ([Merge.merge_header], a lattice join by Lemma 2), the
     column-mode claim joins and the [temp_add] calls see each row's
     records in record order.
   - Abort reasons and table touches then come from one ordered pass
     over the slots, so each write set keeps the reason of its first
     failing record.
   - Phase B reads the post-A headers and claims only and writes one
     [reasons] element per write set.
   - The SSI pass and phase C run in write-set order. *)

module Db = Gg_storage.Db
module Table = Gg_storage.Table
module Csn = Gg_storage.Csn
module Row_header = Gg_storage.Row_header
module Writeset = Gg_crdt.Writeset
module Merge = Gg_crdt.Merge
module Meta = Gg_crdt.Meta
module Column = Gg_crdt.Column

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

(* Rows by physical entry: one live row is one entry for the whole
   merge (phase C re-installs only keys that were absent in phase A). *)
module Etbl = Hashtbl.Make (struct
  type t = Table.entry

  let equal = ( == )
  let hash (e : Table.entry) = Table.key_hash e.Table.key_str
end)

let node_bits = 10
let pack_csn (c : Csn.t) = (c.Csn.ts lsl node_bits) lor c.Csn.node
let csn_key (ws : Writeset.t) = pack_csn ws.Writeset.meta.Meta.csn
let pack_row ~table ~key_str = String.concat "\x00" [ table; key_str ]

let stamp_row table (entry : Table.entry) (meta : Meta.t) =
  Row_header.stamp entry.Table.header ~sen:meta.Meta.sen ~csn:meta.Meta.csn
    ~cen:meta.Meta.cen;
  Table.touch table

let insert_row table (r : Writeset.record) ~key_str (meta : Meta.t) =
  let header = Row_header.create () in
  Row_header.stamp header ~sen:meta.Meta.sen ~csn:meta.Meta.csn
    ~cen:meta.Meta.cen;
  ignore
    (Table.insert_committed table ~key:r.Writeset.key ~key_str
       ~data:r.Writeset.data ~header)

let lww_apply db (ws : Writeset.t) =
  let meta = ws.Writeset.meta in
  List.iter
    (fun (r : Writeset.record) ->
      match Db.get_table db r.Writeset.table with
      | None -> ()
      | Some table -> (
        let key_str = Writeset.key_str r in
        match Table.find table key_str with
        | Some entry ->
          if Csn.compare meta.Meta.csn entry.Table.header.Row_header.csn > 0
          then begin
            (* The stamp alone is digest-relevant (a delete over an
               existing tombstone changes only the header). *)
            stamp_row table entry meta;
            match r.Writeset.op with
            | Writeset.Delete -> Table.delete table entry
            | Writeset.Insert | Writeset.Update ->
              Table.revive table entry r.Writeset.data
          end
        | None ->
          if r.Writeset.op <> Writeset.Delete then
            insert_row table r ~key_str meta))
    ws.Writeset.records

(* Column mode: one per live row the epoch's updates and deletes reach,
   shared by all of that row's slots. [claim] is the join of every
   update/delete claim on the row (phase A); [cells] the per-column
   winners among the committed updates (filled just before phase C). *)
type row = {
  mutable claim : Column.claim;
  mutable cells : Column.cell option array;
}

type slot =
  | Pending  (* before phase A *)
  | Failed of Txn.abort_reason  (* phase A marks the write set dead *)
  | Held of {
      table : Table.t;
      entry : Table.entry;
          (* the main entry for Update/Delete, the temp entry for Insert *)
      stamped : bool;  (* phase A stamped a committed row's header *)
      row : row option;  (* column mode, Update/Delete *)
    }

type t = {
  index : int Itbl.t;  (* csn -> write-set position *)
  reasons : Txn.abort_reason option array;  (* [None] = committed *)
  n_records : int;
  n_committed : int;
}

let n_records t = t.n_records
let n_committed t = t.n_committed
let n_dead t = Array.length t.reasons - t.n_committed

let reason t ws =
  match Itbl.find_opt t.index (csn_key ws) with
  | Some w -> t.reasons.(w)
  | None -> Some Txn.Write_conflict

let verdict = reason
let committed t ws = Option.is_none (reason t ws)

(* The flattened epoch: write sets by position, records by slot index,
   and each write set's slot range [first.(w), first.(w + 1)). *)
type epoch = {
  wss : Writeset.t array;
  recs : Writeset.record array;
  owner : int array;  (* slot -> write-set position *)
  first : int array;
}

let flatten txns =
  let wss = Array.of_list txns in
  let recs =
    Array.of_list (List.concat_map (fun ws -> ws.Writeset.records) txns)
  in
  let owner = Array.make (Array.length recs) 0 in
  let first = Array.make (Array.length wss + 1) 0 in
  Array.iteri
    (fun w (ws : Writeset.t) ->
      let start = first.(w) in
      let n = List.length ws.Writeset.records in
      Array.fill owner start n w;
      first.(w + 1) <- start + n)
    wss;
  { wss; recs; owner; first }

(* Phase A for one record: pre-write it and record what it resolved to. *)
let resolve ~db ~column ~rows ep i =
  let r = ep.recs.(i) in
  let meta = ep.wss.(ep.owner.(i)).Writeset.meta in
  match Db.get_table db r.Writeset.table with
  | None -> Failed (Txn.Constraint_violation "unknown table")
  | Some table -> (
    let key_str = Writeset.key_str r in
    match r.Writeset.op with
    | Writeset.Insert -> (
      match Table.find_live table key_str with
      | Some _ -> Failed (Txn.Constraint_violation "duplicate key")
      | None -> (
        let temp = Table.temp_add table ~key:r.Writeset.key ~key_str in
        match Merge.merge_header temp.Table.header ~meta with
        | Merge.Win | Merge.Already ->
          Held { table; entry = temp; stamped = false; row = None }
        | Merge.Lose -> Failed Txn.Write_conflict))
    | Writeset.Update | Writeset.Delete -> (
      match Table.find table key_str with
      | None -> Failed Txn.Row_deleted
      | Some entry when entry.Table.header.Row_header.deleted ->
        Failed Txn.Row_deleted
      | Some entry -> (
        let delete = r.Writeset.op = Writeset.Delete in
        let row =
          if not column then None
          else
            let c = Column.claim ~meta ~delete in
            match Etbl.find_opt rows entry with
            | Some rw ->
              rw.claim <- Column.claim_join rw.claim c;
              Some rw
            | None ->
              let rw = { claim = c; cells = [||] } in
              Etbl.replace rows entry rw;
              Some rw
        in
        match Merge.merge_header entry.Table.header ~meta with
        | Merge.Win ->
          (* In-place stamp of a committed row's header: the digest
             changes even if this transaction later fails validation and
             phase C never rewrites the row. *)
          Held { table; entry; stamped = true; row }
        | Merge.Already -> Held { table; entry; stamped = false; row }
        | Merge.Lose ->
          (* Column mode lets losing updates live on: each of their cells
             resolves independently (validation instead asks whether a
             tombstone won the row). Losing deletes still conflict — a
             delete is all-or-nothing. *)
          if column && not delete then
            Held { table; entry; stamped = false; row }
          else Failed Txn.Write_conflict)))

let phase_a ~db ~column ep slots =
  let rows = Etbl.create (if column then 64 else 1) in
  for i = 0 to Array.length slots - 1 do
    slots.(i) <- resolve ~db ~column ~rows ep i
  done

(* Does every record of live write set [w] still hold its row? *)
let holds ~column ep slots w =
  let meta = ep.wss.(w).Writeset.meta in
  let rec from i =
    i >= ep.first.(w + 1)
    || (match slots.(i) with
       | Held { entry; row; _ } ->
         if column && ep.recs.(i).Writeset.op = Writeset.Update then
           (* Column mode: an update holds as long as no tombstone won
              the row — every surviving update commits and resolves cell
              by cell in phase C. *)
           match row with Some rw -> not rw.claim.Column.c_delete | None -> false
         else Csn.equal entry.Table.header.Row_header.csn meta.Meta.csn
       | Failed _ | Pending -> false)
       && from (i + 1)
  in
  from ep.first.(w)

let ssi_pass ep reasons =
  let n_ws = Array.length ep.wss in
  let writes_of : int list Stbl.t = Stbl.create 64 in
  let reads_of : int list Stbl.t = Stbl.create 64 in
  let add tbl key v =
    Stbl.replace tbl key (v :: Option.value ~default:[] (Stbl.find_opt tbl key))
  in
  let record_key (r : Writeset.record) =
    pack_row ~table:r.Writeset.table ~key_str:(Writeset.key_str r)
  in
  for w = 0 to n_ws - 1 do
    if Option.is_none reasons.(w) then begin
      let ws = ep.wss.(w) in
      List.iter (fun r -> add writes_of (record_key r) w) ws.Writeset.records;
      List.iter
        (fun (table, key_str) -> add reads_of (pack_row ~table ~key_str) w)
        ws.Writeset.read_keys
    end
  done;
  let others tbl key w =
    List.exists (fun w' -> w' <> w) (Option.value ~default:[] (Stbl.find_opt tbl key))
  in
  for w = 0 to n_ws - 1 do
    if Option.is_none reasons.(w) then begin
      let ws = ep.wss.(w) in
      let outgoing =
        List.exists
          (fun (table, key_str) -> others writes_of (pack_row ~table ~key_str) w)
          ws.Writeset.read_keys
      in
      let incoming =
        List.exists (fun r -> others reads_of (record_key r) w) ws.Writeset.records
      in
      if outgoing && incoming then reasons.(w) <- Some Txn.Ssi_conflict
    end
  done

(* Column mode: per-(row, column) winner among the COMMITTED updates.
   The committed set is itself order-independent (phases A/B), so the
   joins here are too; aborted writers never claim cells. *)
let cell_winners ep slots reasons =
  Array.iteri
    (fun i slot ->
      let r = ep.recs.(i) in
      match slot with
      | Held { row = Some rw; _ }
        when r.Writeset.op = Writeset.Update && Option.is_none reasons.(ep.owner.(i)) ->
        let meta = ep.wss.(ep.owner.(i)).Writeset.meta in
        let n = Array.length r.Writeset.data in
        if Array.length rw.cells < n then begin
          let a = Array.make n None in
          Array.blit rw.cells 0 a 0 (Array.length rw.cells);
          rw.cells <- a
        end;
        Array.iteri
          (fun c v ->
            if Column.covers ~cols:r.Writeset.cols c then
              rw.cells.(c) <- Some (Column.join_opt rw.cells.(c) (Column.cell ~meta v)))
          r.Writeset.data
      | Held _ | Failed _ | Pending -> ())
    slots

(* Column mode: the row with only the cells this record won written.
   Winners are unique per cell, so the order of committed writers cannot
   clobber one another and the final row is the per-column join whatever
   the order. A record that wins no cell leaves the row (and its version
   count) untouched on every replica alike. *)
let write_won_cells table (entry : Table.entry) (r : Writeset.record) ~meta rw =
  let out = ref None in
  Array.iteri
    (fun i v ->
      if
        Column.covers ~cols:r.Writeset.cols i
        && i < Array.length entry.Table.data
        && i < Array.length rw.cells
      then
        match rw.cells.(i) with
        | Some c when Csn.equal c.Column.meta.Meta.csn meta.Meta.csn ->
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
  match !out with Some data -> Table.write table entry data | None -> ()

(* Phase C for one record of a committed write set. *)
let write_back (r : Writeset.record) ~meta ~table ~(entry : Table.entry) ~row =
  match r.Writeset.op with
  | Writeset.Insert -> (
    (* Find first: an earlier committed insert of this key in the epoch
       (the same write set inserting it twice) has already installed it,
       and a tombstone is revived in place. *)
    match Table.find table entry.Table.key_str with
    | Some main ->
      Row_header.stamp main.Table.header ~sen:meta.Meta.sen ~csn:meta.Meta.csn
        ~cen:meta.Meta.cen;
      Table.revive table main r.Writeset.data
    | None -> Table.install_temp table entry r.Writeset.data)
  | Writeset.Update -> (
    match row with
    | None -> Table.write table entry r.Writeset.data
    | Some rw -> write_won_cells table entry r ~meta rw)
  | Writeset.Delete -> Table.delete table entry

let phase_c ~defer ep slots reasons =
  Array.iteri
    (fun w (ws : Writeset.t) ->
      if Option.is_none reasons.(w) && not (defer ws) then
        let meta = ws.Writeset.meta in
        for i = ep.first.(w) to ep.first.(w + 1) - 1 do
          match slots.(i) with
          | Held { table; entry; row; _ } ->
            write_back ep.recs.(i) ~meta ~table ~entry ~row
          | Failed _ | Pending -> assert false (* committed: all held *)
        done)
    ep.wss

let run ?(defer = fun _ -> false) ?(level = Params.Row) ~db ~jobs ~ssi txns =
  if jobs <> 1 then invalid_arg "Epoch_merge.run: jobs must be 1";
  let column = level = Params.Column in
  let ep = flatten txns in
  let n_records = Array.length ep.recs and n_ws = Array.length ep.wss in
  let slots = Array.make n_records Pending in
  phase_a ~db ~column ep slots;
  (* Abort reasons (the first failing record's, per write set) and
     touches of the tables whose committed headers phase A stamped, in
     record order. *)
  let reasons = Array.make n_ws None in
  Array.iteri
    (fun i slot ->
      match slot with
      | Failed reason ->
        let w = ep.owner.(i) in
        if Option.is_none reasons.(w) then reasons.(w) <- Some reason
      | Held { stamped = true; table; _ } -> Table.touch table
      | Held { stamped = false; _ } | Pending -> ())
    slots;
  for w = 0 to n_ws - 1 do
    if Option.is_none reasons.(w) && not (holds ~column ep slots w) then
      reasons.(w) <- Some Txn.Write_conflict
  done;
  if ssi then ssi_pass ep reasons;
  if column then cell_winners ep slots reasons;
  phase_c ~defer ep slots reasons;
  Db.temp_clear_all db;
  let index = Itbl.create (max 16 n_ws) in
  Array.iteri (fun w ws -> Itbl.replace index (csn_key ws) w) ep.wss;
  let n_committed =
    Array.fold_left (fun n r -> if Option.is_none r then n + 1 else n) 0 reasons
  in
  { index; reasons; n_records; n_committed }
