type t = {
  tables : (string, Table.t) Hashtbl.t;
  mutable version : int;  (* grows with every change of the table set *)
}

let create () = { tables = Hashtbl.create 16; version = 0 }

let index_total t =
  Hashtbl.fold (fun _ table n -> n + Table.index_count table) t.tables 0

(* No index is ever dropped, so over one table set the sum only grows.
   A new table has no index and adds one to [version]; a replacement
   first sets [version] above the old stamp, so the stamp grows
   whatever indexes the new tables have. *)
let catalog t = t.version + index_total t

let add_table t schema =
  let name = schema.Schema.table_name in
  if Hashtbl.mem t.tables name then
    invalid_arg (Printf.sprintf "Db.add_table: table %s exists" name);
  let table = Table.create schema in
  Hashtbl.replace t.tables name table;
  t.version <- t.version + 1;
  table

let create_table t ~name ~columns ~key =
  add_table t (Schema.create ~name ~columns ~key)

let get_table t name = Hashtbl.find_opt t.tables name

let get_table_exn t name =
  match Hashtbl.find_opt t.tables name with
  | Some table -> table
  | None -> raise Not_found

let table_names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.tables []
  |> List.sort Stdlib.compare

let temp_clear_all t = Hashtbl.iter (fun _ table -> Table.temp_clear table) t.tables

let purge_tombstones t ~before_cen =
  Hashtbl.fold
    (fun _ table acc -> acc + Table.purge_tombstones table ~before_cen)
    t.tables 0

(* Hash of per-table digests rather than of one concatenated
   serialization: each table's digest is cached behind its mutation
   counter (Table.digest), so re-digesting a database in which only a
   few tables changed — the convergence oracle does this every epoch —
   re-serializes only those tables. *)
let digest t =
  let buf = Buffer.create 256 in
  List.iter
    (fun name ->
      Buffer.add_string buf name;
      Buffer.add_char buf '\x00';
      Buffer.add_string buf (Table.digest (get_table_exn t name)))
    (table_names t);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let copy t =
  let fresh = create () in
  Hashtbl.iter
    (fun name table -> Hashtbl.replace fresh.tables name (Table.copy table))
    t.tables;
  fresh

let replace_contents t ~from =
  t.version <- catalog t + 1;
  Hashtbl.reset t.tables;
  Hashtbl.iter
    (fun name table -> Hashtbl.replace t.tables name (Table.copy table))
    from.tables
