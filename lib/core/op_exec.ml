module Op = Gg_workload.Op
module Value = Gg_storage.Value
module Table = Gg_storage.Table
module Db = Gg_storage.Db
module Writeset = Gg_crdt.Writeset

module Stbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

type result = {
  reads : Gg_sql.Executor.read_record list;
  writes : Gg_crdt.Writeset.record list;
}

type pending = {
  p_table : string;
  p_key : Value.t array;
  p_key_str : string;
  p_existed : bool;
  mutable p_op : Writeset.op;
  mutable p_data : Value.t array;
  mutable p_cols : int;
      (* column mask of an Update; Column.full unless col_mask tracking
         is on and every write to this row was single-column *)
  mutable p_dead : bool;
}

exception Exec_error of string

(* (table, encoded key) flattened to one string so the buffers use a
   monomorphic string-keyed table instead of polymorphic tuple hashing;
   table names never contain NUL. *)
let rowkey ~table ~key_str = String.concat "\x00" [ table; key_str ]

(* Distinct reads the read-set dedup checks by a linear scan of the base
   entries already read (physical identity: the database is not mutated
   during [exec], so one row is one entry). Past it, the reads are
   indexed by [rowkey] once and every later read is hashed instead. A
   repeat check below the bound is at most this many pointer compares
   over one short list — less than building and hashing one [rowkey].
   YCSB's 10 reads stay below it; a TPC-C New-Order (3 reads plus 2 per
   item line, 5-15 lines) passes it from 7 lines up. *)
let dedup_linear_max = 16

let exec ?(record_reads = false) ?(col_mask = false) db (txn : Op.txn) =
  let module Column = Gg_crdt.Column in
  let reads_rev = ref [] in
  let n_reads = ref 0 in
  let read_entries = ref [] in  (* base entries read, while unindexed *)
  let read_index : unit Stbl.t option ref = ref None in
  let writes : pending Stbl.t = Stbl.create 8 in
  let order_rev : pending list ref = ref [] in
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
  let index_reads () =
    let idx = Stbl.create (4 * dedup_linear_max) in
    List.iter
      (fun (r : Gg_sql.Executor.read_record) ->
        Stbl.replace idx (rowkey ~table:r.r_table ~key_str:r.r_key_str) ())
      !reads_rev;
    read_entries := [];
    read_index := Some idx;
    idx
  in
  let first_read ~table ~key_str (e : Table.entry) =
    match !read_index with
    | None when List.memq e !read_entries -> false
    | None when !n_reads < dedup_linear_max ->
      read_entries := e :: !read_entries;
      true
    | index ->
      let idx = match index with Some idx -> idx | None -> index_reads () in
      let rk = rowkey ~table ~key_str in
      if Stbl.mem idx rk then false
      else begin
        Stbl.replace idx rk ();
        true
      end
  in
  let record_read ~table ~key_str (e : Table.entry) =
    if record_reads && first_read ~table ~key_str e then begin
      incr n_reads;
      reads_rev :=
        {
          Gg_sql.Executor.r_table = table;
          r_key_str = key_str;
          r_csn = e.header.csn;
          r_cen = e.header.cen;
        }
        :: !reads_rev
    end
  in
  (* Visible data under the read-your-writes overlay: [None] = absent.
     The overlay is probed (and [rk] built) only once a write is
     buffered. *)
  let lookup tbl ~key_str ~rk =
    match if !order_rev == [] then None else Stbl.find_opt writes rk with
    | Some p when not p.p_dead ->
      if p.p_op = Writeset.Delete then None else Some (`Own p)
    | Some _ | None -> (
      match Table.find_live tbl key_str with
      | Some e -> Some (`Base e)
      | None -> None)
  in
  let buffer ~table ~key ~key_str ~rk ~existed ~op ~cols ~data =
    match Stbl.find_opt writes rk with
    | Some p ->
      (match (p.p_dead, op) with
      | true, Writeset.Delete -> ()
      | true, _ ->
        p.p_dead <- false;
        p.p_op <- (if p.p_existed then Writeset.Update else Writeset.Insert);
        p.p_data <- data;
        p.p_cols <- Column.full
      | false, Writeset.Delete ->
        if p.p_existed then begin
          p.p_op <- Writeset.Delete;
          p.p_data <- [||];
          p.p_cols <- Column.full
        end
        else p.p_dead <- true
      | false, _ ->
        p.p_op <- (if p.p_existed then Writeset.Update else Writeset.Insert);
        p.p_data <- data;
        (* Coalesced writes touch the union of the columns; [full]
           (any whole-row write) absorbs. *)
        p.p_cols <- Column.union p.p_cols cols)
    | None ->
      let p =
        {
          p_table = table;
          p_key = key;
          p_key_str = key_str;
          p_existed = existed;
          p_op = op;
          p_data = data;
          p_cols = cols;
          p_dead = false;
        }
      in
      Stbl.replace writes rk p;
      order_rev := p :: !order_rev
  in
  (* Every op but a read with [record_reads] off: encode the key, look
     through the overlay and the table, record the read, buffer the
     write. *)
  let probe_op op ~table tbl =
    let key = Op.op_key op in
    let key_str = Value.encode_key key in
    let rk =
      match op with
      | Op.Read _ when !order_rev == [] -> ""
      | _ -> rowkey ~table ~key_str
    in
    match op with
    | Op.Read _ -> (
      match lookup tbl ~key_str ~rk with
      | Some (`Base e) -> record_read ~table ~key_str e
      | Some (`Own _) | None -> ())
    | Op.Write { data; _ } -> (
      match lookup tbl ~key_str ~rk with
      | Some (`Base _) ->
        buffer ~table ~key ~key_str ~rk ~existed:true ~op:Writeset.Update
          ~cols:Column.full ~data
      | Some (`Own p) ->
        buffer ~table ~key ~key_str ~rk ~existed:p.p_existed ~op:Writeset.Update
          ~cols:Column.full ~data
      | None ->
        buffer ~table ~key ~key_str ~rk ~existed:false ~op:Writeset.Insert
          ~cols:Column.full ~data)
    | Op.Add { col; delta; _ } -> (
      match lookup tbl ~key_str ~rk with
      | None -> raise (Exec_error (Printf.sprintf "Add: missing row in %s" table))
      | Some visible ->
        let data, existed =
          match visible with
          | `Base e ->
            record_read ~table ~key_str e;
            (Array.copy e.Table.data, true)
          | `Own p -> (Array.copy p.p_data, p.p_existed)
        in
        if col < 0 || col >= Array.length data then
          raise (Exec_error "Add: column out of range");
        (match data.(col) with
        | Value.Int v -> data.(col) <- Value.Int (v + delta)
        | _ -> raise (Exec_error "Add: non-integer column"));
        let cols = if col_mask then Column.of_index col else Column.full in
        buffer ~table ~key ~key_str ~rk ~existed ~op:Writeset.Update ~cols ~data)
    | Op.Insert { data; _ } -> (
      match lookup tbl ~key_str ~rk with
      | Some _ ->
        raise (Exec_error (Printf.sprintf "Insert: duplicate key in %s" table))
      | None ->
        buffer ~table ~key ~key_str ~rk ~existed:false ~op:Writeset.Insert
          ~cols:Column.full ~data)
    | Op.Delete _ -> (
      match lookup tbl ~key_str ~rk with
      | None ->
        raise (Exec_error (Printf.sprintf "Delete: missing row in %s" table))
      | Some (`Base e) ->
        record_read ~table ~key_str e;
        buffer ~table ~key ~key_str ~rk ~existed:true ~op:Writeset.Delete
          ~cols:Column.full ~data:[||]
      | Some (`Own p) ->
        buffer ~table ~key ~key_str ~rk ~existed:p.p_existed ~op:Writeset.Delete
          ~cols:Column.full ~data:[||])
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
  | () ->
    let ws =
      List.rev !order_rev
      |> List.filter_map (fun p ->
             if p.p_dead then None
             else
               Some
                 (Writeset.make_record ~key_str:p.p_key_str ~cols:p.p_cols
                    ~table:p.p_table ~key:p.p_key ~op:p.p_op ~data:p.p_data ()))
    in
    Ok { reads = List.rev !reads_rev; writes = ws }
  | exception Exec_error m -> Error m
