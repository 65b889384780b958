module Op = Gg_workload.Op
module Value = Gg_storage.Value
module Table = Gg_storage.Table
module Db = Gg_storage.Db
module Column = Gg_crdt.Column
module Ctx = Gg_sql.Executor.Ctx

type result = {
  reads : Gg_sql.Executor.read_record list;
  writes : Gg_crdt.Writeset.record list;
}

exception Exec_error of string

let exec ?(record_reads = false) ?(col_mask = false) db (txn : Op.txn) =
  let ctx = Ctx.create ~record_reads ~track_cols:col_mask db in
  let record = Ctx.recorder ctx in
  let tables = ref [] in  (* (name, table) resolved by this transaction *)
  let table_of name =
    let rec go = function
      | (n, t) :: rest -> if String.equal n name then t else go rest
      | [] -> (
        match Db.get_table db name with
        | Some t ->
          tables := (name, t) :: !tables;
          t
        | None -> raise (Exec_error (Printf.sprintf "unknown table %s" name)))
    in
    go !tables
  in
  let fail fmt = Printf.ksprintf (fun m -> raise (Exec_error m)) fmt in
  (* Every op but a read with [record_reads] off: encode the key, look
     through the overlay and the table, record the read of a committed
     row, buffer the write. A [Write] is blind: it records no read, and
     a later read of its row sees an own write and records none. *)
  let probe_op op ~table tbl =
    let key = Op.op_key op in
    let key_str = Value.encode_key key in
    let visible = Ctx.lookup ctx tbl ~table ~key_str in
    let read () =
      match visible with
      | `Base e -> record ~table ~key_str ~header:e.Table.header
      | `Own _ | `Absent -> ()
    in
    let write ?cols row =
      Ctx.write ctx ~table ~key ~key_str
        ~existed:(match visible with `Base _ -> true | `Own _ | `Absent -> false)
        ?cols row
    in
    match (op, visible) with
    | Op.Read _, _ -> read ()
    | Op.Write { data; _ }, _ -> write (Some data)
    | Op.Add _, `Absent -> fail "Add: missing row in %s" table
    | Op.Add { col; delta; _ }, ((`Base _ | `Own _) as v) ->
      read ();
      let data =
        match v with `Base e -> Array.copy e.Table.data | `Own d -> Array.copy d
      in
      if col < 0 || col >= Array.length data then fail "Add: column out of range";
      (match data.(col) with
      | Value.Int v -> data.(col) <- Value.Int (v + delta)
      | _ -> fail "Add: non-integer column");
      write ~cols:(if col_mask then Column.of_index col else Column.full) (Some data)
    | Op.Insert _, (`Base _ | `Own _) -> fail "Insert: duplicate key in %s" table
    | Op.Insert { data; _ }, `Absent -> write (Some data)
    | Op.Delete _, `Absent -> fail "Delete: missing row in %s" table
    | Op.Delete _, (`Base _ | `Own _) ->
      read ();
      write None
  in
  let run_op op =
    let table = Op.op_table op in
    let tbl = table_of table in
    match op with
    | Op.Read _ when not record_reads ->
      (* Nothing consumes the row: an op transaction returns no read
         values and no read set is kept, so the read only resolves its
         table (an unknown one still fails) and probes nothing. *)
      ()
    | _ -> probe_op op ~table tbl
  in
  match Array.iter run_op txn.Op.ops with
  | () -> Ok { reads = Ctx.read_set ctx; writes = Ctx.writeset_records ctx }
  | exception Exec_error m -> Error m
