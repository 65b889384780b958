module Enc = Gg_util.Codec.Enc
module Dec = Gg_util.Codec.Dec

let encode_schema enc (s : Schema.t) =
  Enc.string enc s.Schema.table_name;
  Enc.varint enc (Array.length s.Schema.columns);
  Array.iter
    (fun (c : Schema.column) ->
      Enc.string enc c.Schema.name;
      Enc.byte enc
        (match c.Schema.ty with Schema.TInt -> 0 | Schema.TFloat -> 1 | Schema.TStr -> 2))
    s.Schema.columns;
  Enc.varint enc (Array.length s.Schema.key_cols);
  Array.iter (Enc.varint enc) s.Schema.key_cols

let decode_schema dec =
  let name = Dec.string dec in
  let n_cols = Dec.varint dec in
  let columns =
    List.init n_cols (fun _ ->
        let cname = Dec.string dec in
        let ty =
          match Dec.byte dec with
          | 0 -> Schema.TInt
          | 1 -> Schema.TFloat
          | 2 -> Schema.TStr
          | t -> invalid_arg (Printf.sprintf "Checkpoint: bad column type %d" t)
        in
        { Schema.name = cname; ty })
  in
  let n_key = Dec.varint dec in
  let key_idx = List.init n_key (fun _ -> Dec.varint dec) in
  let key =
    List.map
      (fun i ->
        match List.nth_opt columns i with
        | Some c -> c.Schema.name
        | None -> invalid_arg "Checkpoint: key column out of range")
      key_idx
  in
  Schema.create ~name ~columns ~key

let encode_table enc table =
  encode_schema enc (Table.schema table);
  (* secondary index definitions *)
  let idx_names = Table.index_names table in
  Enc.varint enc (List.length idx_names);
  List.iter
    (fun name ->
      Enc.string enc name;
      let cols = Option.get (Table.index_cols table ~name) in
      Enc.varint enc (Array.length cols);
      Array.iter (Enc.varint enc) cols)
    idx_names;
  (* Every entry — tombstones included, so the restored replica keeps
     rejecting writes to deleted rows — in ascending [key_str] order so
     equal states serialize identically. *)
  Enc.varint enc (Table.total_count table);
  Table.iter_sorted table (fun (e : Table.entry) ->
      Enc.varint enc (Array.length e.Table.key);
      Array.iter (Value.encode enc) e.Table.key;
      Enc.bool enc e.Table.header.Row_header.deleted;
      Enc.zigzag enc e.Table.header.Row_header.sen;
      Enc.zigzag enc e.Table.header.Row_header.cen;
      Csn.encode enc e.Table.header.Row_header.csn;
      Enc.varint enc (Array.length e.Table.data);
      Array.iter (Value.encode enc) e.Table.data)

let decode_table dec db =
  let schema = decode_schema dec in
  let table = Db.add_table db schema in
  let n_idx = Dec.varint dec in
  let idx_defs =
    List.init n_idx (fun _ ->
        let name = Dec.string dec in
        let nc = Dec.varint dec in
        let col_idx = List.init nc (fun _ -> Dec.varint dec) in
        (name, col_idx))
  in
  let n = Dec.varint dec in
  for _ = 1 to n do
    let klen = Dec.varint dec in
    let key = Array.init klen (fun _ -> Value.decode dec) in
    let deleted = Dec.bool dec in
    let sen = Dec.zigzag dec in
    let cen = Dec.zigzag dec in
    let csn = Csn.decode dec in
    let dlen = Dec.varint dec in
    let data = Array.init dlen (fun _ -> Value.decode dec) in
    let header = Row_header.create () in
    Row_header.stamp header ~sen ~csn ~cen;
    let entry =
      Table.insert_committed table ~key ~key_str:(Value.encode_key key) ~data
        ~header
    in
    if deleted then Table.delete table entry
  done;
  List.iter
    (fun (name, col_idx) ->
      let cols =
        List.map
          (fun i -> (Table.schema table).Schema.columns.(i).Schema.name)
          col_idx
      in
      Table.create_index table ~name ~cols)
    idx_defs

let magic = "GGCKPT1"

let encode db =
  let enc = Enc.create () in
  Enc.string enc magic;
  let names = Db.table_names db in
  Enc.varint enc (List.length names);
  List.iter (fun name -> encode_table enc (Db.get_table_exn db name)) names;
  Enc.to_bytes enc

let decode bytes =
  let dec = Dec.of_bytes bytes in
  try
    if Dec.string dec <> magic then invalid_arg "Checkpoint: bad magic";
    let db = Db.create () in
    let n = Dec.varint dec in
    for _ = 1 to n do
      decode_table dec db
    done;
    db
  with Dec.Truncated -> invalid_arg "Checkpoint: truncated"

let size db = Bytes.length (encode db)
