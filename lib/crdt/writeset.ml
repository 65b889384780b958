module Value = Gg_storage.Value
module Enc = Gg_util.Codec.Enc
module Dec = Gg_util.Codec.Dec

type op = Insert | Update | Delete

type record = {
  table : string;
  key : Value.t array;
  op : op;
  data : Value.t array;
  cols : int;
      (* column mask of an Update (Column.full = whole row); always
         Column.full outside column-level merge *)
  mutable key_enc : string;
      (* memoized Value.encode_key of [key]; "" = not yet computed *)
}

type t = {
  meta : Meta.t;
  records : record list;
  read_keys : (string * string) list;
      (* (table, encoded key); shipped only under the SSI extension *)
  mutable enc_size : int;  (* memoized encoded_size; -1 = not yet computed *)
}

let make ?(read_keys = []) ~meta ~records () =
  { meta; records; read_keys; enc_size = -1 }

let make_record ?(key_str = "") ?(cols = Column.full) ~table ~key ~op ~data () =
  { table; key; op; data; cols; key_enc = key_str }

let with_commit t ~meta ~read_keys = { t with meta; read_keys; enc_size = -1 }

(* Each record's key is encoded at most once: construction sites that
   already hold the encoding pass it in, everyone else pays one
   [Value.encode_key] on first use and hits the cache afterwards. *)
let key_str r =
  if r.key_enc <> "" then r.key_enc
  else begin
    let s = Value.encode_key r.key in
    r.key_enc <- s;
    s
  end

let op_tag = function Insert -> 0 | Update -> 1 | Delete -> 2

let op_of_tag = function
  | 0 -> Insert
  | 1 -> Update
  | 2 -> Delete
  | n -> invalid_arg (Printf.sprintf "Writeset: bad op tag %d" n)

(* Wire op tag 3: a masked Update — only the columns in the mask travel.
   It is emitted exactly when [cols <> Column.full], which only column-
   level merge produces, so row-level streams carry tags 0-2 only and
   stay byte-identical to the pre-column codec. *)
let masked_update_tag = 3

let encode_record enc r =
  Enc.string enc r.table;
  Enc.varint enc (Array.length r.key);
  (* [Value.encode_key] is exactly the concatenation of the per-value
     encodings, so the cached key doubles as the wire form. *)
  Enc.raw enc (key_str r);
  if r.op = Update && r.cols <> Column.full then begin
    Enc.byte enc masked_update_tag;
    Enc.varint enc (Array.length r.data);
    Enc.varint enc r.cols;
    Array.iteri
      (fun i v -> if Column.covers ~cols:r.cols i then Value.encode enc v)
      r.data
  end
  else begin
    Enc.byte enc (op_tag r.op);
    Enc.varint enc (Array.length r.data);
    Array.iter (Value.encode enc) r.data
  end

let decode_record dec =
  let table = Dec.string dec in
  let klen = Dec.varint dec in
  let kpos = Dec.pos dec in
  let key = Array.init klen (fun _ -> Value.decode dec) in
  (* Capture the key's wire span: the decoded record arrives with its
     key encoding already cached, no re-encode needed. *)
  let key_enc = Dec.sub_string dec ~pos:kpos ~len:(Dec.pos dec - kpos) in
  let tag = Dec.byte dec in
  if tag = masked_update_tag then begin
    let dlen = Dec.varint dec in
    let cols = Dec.varint dec in
    if cols = Column.full then
      invalid_arg "Writeset: masked update with a full mask";
    (* Unmasked slots are Null placeholders: the merge only ever reads
       covered columns of a masked record. *)
    let data = Array.make dlen Value.Null in
    for i = 0 to dlen - 1 do
      if Column.covers ~cols i then data.(i) <- Value.decode dec
    done;
    { table; key; op = Update; data; cols; key_enc }
  end
  else
    let op = op_of_tag tag in
    let dlen = Dec.varint dec in
    let data = Array.init dlen (fun _ -> Value.decode dec) in
    { table; key; op; data; cols = Column.full; key_enc }

let encode enc t =
  Meta.encode enc t.meta;
  Enc.varint enc (List.length t.records);
  List.iter (encode_record enc) t.records;
  Enc.varint enc (List.length t.read_keys);
  List.iter
    (fun (table, key_str) ->
      Enc.string enc table;
      Enc.string enc key_str)
    t.read_keys

let decode dec =
  let meta = Meta.decode dec in
  let n = Dec.varint dec in
  let records = List.init n (fun _ -> decode_record dec) in
  let nr = Dec.varint dec in
  let read_keys =
    List.init nr (fun _ ->
        let table = Dec.string dec in
        let key_str = Dec.string dec in
        (table, key_str))
  in
  { meta; records; read_keys; enc_size = -1 }

let encoded_size t =
  if t.enc_size >= 0 then t.enc_size
  else begin
    let enc = Enc.create () in
    encode enc t;
    let n = Enc.length enc in
    t.enc_size <- n;
    n
  end

module Batch = struct
  type ws = t

  type t = {
    node : int;
    cen : int;
    txns : ws list;
    eof : bool;
    count : int;
    span : int;  (* origin causal span; 0 = untraced *)
    mutable wire : bytes option;  (* memoized [to_wire] result *)
  }

  (* Domain-local, not a plain global: bench scenarios run one-per-task
     on a Domain pool, and each task resets then reads the counter for
     the whole simulation it owns. A shared ref would mix concurrent
     scenarios' counts (and race). *)
  let encodes = Gg_par.Pool.Local.create (fun () -> ref 0)
  let encode_count () = !(Gg_par.Pool.Local.get encodes)
  let reset_encode_count () = Gg_par.Pool.Local.get encodes := 0

  let make ~node ~cen ~txns ~eof ?count ?(span = 0) () =
    {
      node;
      cen;
      txns;
      eof;
      count = Option.value count ~default:(List.length txns);
      span;
      wire = None;
    }

  (* The trace context travels as a fixed-width header OUTSIDE the
     compressed payload: compression output length depends on content,
     so an in-payload span would make the wire size (and thus every
     simulated byte count) vary with the span value — tracing could then
     perturb the simulation it observes. Eight header bytes are always
     present, span 0 meaning "untraced". *)
  let span_header_bytes = 8

  let encode_wire t =
    incr (Gg_par.Pool.Local.get encodes);
    let enc = Enc.create () in
    Enc.varint enc t.node;
    Enc.varint enc t.cen;
    Enc.bool enc t.eof;
    Enc.varint enc t.count;
    Enc.varint enc (List.length t.txns);
    List.iter (encode enc) t.txns;
    let payload = Gg_util.Compress.compress (Enc.to_bytes enc) in
    let out = Bytes.create (span_header_bytes + Bytes.length payload) in
    Bytes.set_int64_le out 0 (Int64.of_int t.span);
    Bytes.blit payload 0 out span_header_bytes (Bytes.length payload);
    out

  let to_wire t =
    match t.wire with
    | Some bytes -> bytes
    | None ->
      let bytes = encode_wire t in
      t.wire <- Some bytes;
      bytes

  let of_wire bytes =
    if Bytes.length bytes < span_header_bytes then
      invalid_arg "Writeset.Batch.of_wire: truncated";
    let span = Int64.to_int (Bytes.get_int64_le bytes 0) in
    let raw =
      Gg_util.Compress.decompress
        (Bytes.sub bytes span_header_bytes
           (Bytes.length bytes - span_header_bytes))
    in
    let dec = Dec.of_bytes raw in
    try
      let node = Dec.varint dec in
      let cen = Dec.varint dec in
      let eof = Dec.bool dec in
      let count = Dec.varint dec in
      let n = Dec.varint dec in
      let txns = List.init n (fun _ -> decode dec) in
      (* The input is this batch's wire form: keep it so re-forwarding or
         sizing the batch never re-encodes. *)
      { node; cen; txns; eof; count; span; wire = Some bytes }
    with Dec.Truncated -> invalid_arg "Writeset.Batch.of_wire: truncated"

  let wire_size t = Bytes.length (to_wire t)

  (* Total decode surface for frames off the (possibly corrupted) wire:
     the compressor and the codec both signal damage with
     [Invalid_argument], which must never escape into the simulation —
     a corrupt frame is a dropped frame (the repair path re-fetches). *)
  let of_wire_opt bytes =
    match of_wire bytes with
    | b -> Some b
    | exception Invalid_argument _ -> None
end
