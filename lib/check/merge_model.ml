(* The epoch merge written from the paper's rules (Algorithm 2 and the
   validation after it) over immutable maps, one record at a time. The
   kernel flattens, caches and mutates; this file does none of that, so
   the two can disagree only where one of them is wrong. *)

module Value = Gg_storage.Value
module Writeset = Gg_crdt.Writeset
module Meta = Gg_crdt.Meta
module Column = Gg_crdt.Column
module Params = Geogauss.Params
module Txn = Geogauss.Txn

module Rows = Map.Make (struct
  type t = string * string

  let compare = compare
end)

type row = { meta : Meta.t; deleted : bool; data : Value.t array }
type state = { tables : string list; rows : row Rows.t }

type outcome = {
  verdicts : Txn.abort_reason option list;
  n_records : int;
  n_committed : int;
  after : state;
}

let key_of (r : Writeset.record) = (r.Writeset.table, Writeset.key_str r)

(* Every record of the epoch with its write set's meta, in record order. *)
let records wss =
  List.concat_map
    (fun (ws : Writeset.t) ->
      List.map (fun r -> (ws.Writeset.meta, r)) ws.Writeset.records)
    wss

(* The header join of one record into its row's running winner: a
   lattice join (Lemma 2), so a re-merged record changes nothing. *)
let join_claim claims (meta, (r : Writeset.record)) =
  let c = Column.claim ~meta ~delete:(r.Writeset.op = Writeset.Delete) in
  Rows.update (key_of r) (fun prev -> Some (Column.claim_join_opt prev c)) claims

let join_headers wss = List.fold_left join_claim Rows.empty (records wss)

let join_cell cells (meta, (r : Writeset.record)) =
  let n = Array.length r.Writeset.data in
  let join prev =
    let prev = Option.value ~default:[||] prev in
    Some
      (Array.init (max n (Array.length prev)) (fun i ->
           let p = if i < Array.length prev then prev.(i) else None in
           if i < n && Column.covers ~cols:r.Writeset.cols i then
             Some (Column.join_opt p (Column.cell ~meta r.Writeset.data.(i)))
           else p))
  in
  if r.Writeset.op <> Writeset.Update then cells
  else Rows.update (key_of r) join cells

let join_cells wss = List.fold_left join_cell Rows.empty (records wss)

let live st key =
  match Rows.find_opt key st.rows with Some r -> not r.deleted | None -> false

(* Phase A's header joins: [claims] for the updates and deletes of live
   rows, [inserts] for the inserts of keys with no live row. *)
type joins = { claims : Column.claim Rows.t; inserts : Column.claim Rows.t }

let won joins (meta, r) = Meta.equal (Rows.find (key_of r) joins).Column.c_meta meta

(* Phase A for one record: the joins after it, and its failure if it
   fails here. A losing column-level update lives on, to resolve cell by
   cell. *)
let pre_write ~column st j ((_, (r : Writeset.record)) as mr) =
  if not (List.mem r.Writeset.table st.tables) then
    (j, Some (Txn.Constraint_violation "unknown table"))
  else
    match r.Writeset.op with
    | Writeset.Insert when live st (key_of r) ->
      (j, Some (Txn.Constraint_violation "duplicate key"))
    | Writeset.Insert ->
      let j = { j with inserts = join_claim j.inserts mr } in
      (j, if won j.inserts mr then None else Some Txn.Write_conflict)
    | Writeset.Update | Writeset.Delete when not (live st (key_of r)) ->
      (j, Some Txn.Row_deleted)
    | Writeset.Update | Writeset.Delete ->
      let j = { j with claims = join_claim j.claims mr } in
      let lives = won j.claims mr || (column && r.Writeset.op = Writeset.Update) in
      (j, if lives then None else Some Txn.Write_conflict)

(* Phase A over the epoch in record order: the joins, and per write set
   the reason of its first failing record. *)
let phase_a ~column st wss =
  List.fold_left_map
    (fun j ws ->
      List.fold_left
        (fun (j, first) mr ->
          let j, failed = pre_write ~column st j mr in
          (j, if Option.is_some first then first else failed))
        (j, None) (records [ ws ]))
    { claims = Rows.empty; inserts = Rows.empty }
    wss

(* Phase B: does a write set phase A left alive still hold every row? *)
let holds ~column j ws =
  List.for_all
    (fun ((_, (r : Writeset.record)) as mr) ->
      match r.Writeset.op with
      | Writeset.Insert -> won j.inserts mr
      | Writeset.Update when column ->
        not (Rows.find (key_of r) j.claims).Column.c_delete
      | Writeset.Update | Writeset.Delete -> won j.claims mr)
    (records [ ws ])

let committed xs verdicts = List.filteri (fun w _ -> List.nth verdicts w = None) xs

(* The SSI pivot rule over the committed write sets, by position: one
   that reads a row another writes and writes a row another reads. *)
let ssi_pass wss verdicts =
  let live = committed (List.mapi (fun w ws -> (w, ws)) wss) verdicts in
  let writes (ws : Writeset.t) = List.map key_of ws.Writeset.records in
  let reads (ws : Writeset.t) = ws.Writeset.read_keys in
  let edge w keys keys_of =
    List.exists
      (fun (w', ws') -> w' <> w && List.exists (fun k -> List.mem k (keys_of ws')) keys)
      live
  in
  List.mapi
    (fun w v ->
      let ws = List.nth wss w in
      if v = None && edge w (reads ws) writes && edge w (writes ws) reads then
        Some Txn.Ssi_conflict
      else v)
    verdicts

(* Write-back of one committed record. Its data is copied: the kernel
   installs the same arrays, and the model must not see its writes. *)
let write_back ~column ~cells rows (meta, (r : Writeset.record)) =
  let key = key_of r in
  let set row = Rows.add key row rows in
  match (r.Writeset.op, Rows.find_opt key rows) with
  | Writeset.Insert, _ ->
    set { meta; deleted = false; data = Array.copy r.Writeset.data }
  | Writeset.Delete, Some row -> set { row with deleted = true }
  | Writeset.Update, Some row when not column ->
    set { row with data = Array.copy r.Writeset.data }
  | Writeset.Update, Some row ->
    (* Only the cells this record won. *)
    let won = Rows.find key cells in
    let cell i = if i < Array.length won then won.(i) else None in
    let data =
      Array.mapi
        (fun i v ->
          match cell i with
          | Some c
            when i < Array.length r.Writeset.data
                 && Column.covers ~cols:r.Writeset.cols i
                 && Meta.equal c.Column.meta meta ->
            r.Writeset.data.(i)
          | _ -> v)
        row.data
    in
    set { row with data }
  | (Writeset.Update | Writeset.Delete), None ->
    assert false (* committed: phase A found the row live *)

let merge ~level ~ssi st wss =
  let column = level = Params.Column in
  let j, reasons = phase_a ~column st wss in
  let verdicts =
    List.map2
      (fun ws reason ->
        if Option.is_some reason || holds ~column j ws then reason
        else Some Txn.Write_conflict)
      wss reasons
  in
  let verdicts = if ssi then ssi_pass wss verdicts else verdicts in
  let committed = committed wss verdicts in
  (* The winning claim stamps its row's header, committed or not. *)
  let stamped =
    Rows.mapi
      (fun key row ->
        match Rows.find_opt key j.claims with
        | Some c -> { row with meta = c.Column.c_meta }
        | None -> row)
      st.rows
  in
  let cells = if column then join_cells committed else Rows.empty in
  let rows =
    List.fold_left (write_back ~column ~cells) stamped (records committed)
  in
  {
    verdicts;
    n_records = List.length (records wss);
    n_committed = List.length committed;
    after = { st with rows };
  }
