type t = Null | Int of int | Float of float | Str of string

let rank = function Null -> 0 | Int _ | Float _ -> 1 | Str _ -> 2

let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Int x, Int y -> Stdlib.compare x y
  | Float x, Float y -> Stdlib.compare x y
  | Int x, Float y -> Stdlib.compare (float_of_int x) y
  | Float x, Int y -> Stdlib.compare x (float_of_int y)
  | Str x, Str y -> Stdlib.compare x y
  | (Null | Int _ | Float _ | Str _), _ -> Stdlib.compare (rank a) (rank b)

let equal a b = compare a b = 0

let pp fmt = function
  | Null -> Format.pp_print_string fmt "NULL"
  | Int i -> Format.pp_print_int fmt i
  | Float f -> Format.fprintf fmt "%g" f
  | Str s -> Format.fprintf fmt "'%s'" s

let to_string v = Format.asprintf "%a" pp v

let type_name = function
  | Null -> "null"
  | Int _ -> "int"
  | Float _ -> "float"
  | Str _ -> "string"

let is_truthy = function
  | Null -> false
  | Int 0 -> false
  | Float 0.0 -> false
  | Int _ | Float _ -> true
  | Str "" -> false
  | Str _ -> true

let encode enc v =
  let module E = Gg_util.Codec.Enc in
  match v with
  | Null -> E.byte enc 0
  | Int i ->
    E.byte enc 1;
    E.zigzag enc i
  | Float f ->
    E.byte enc 2;
    E.float enc f
  | Str s ->
    E.byte enc 3;
    E.string enc s

let decode dec =
  let module D = Gg_util.Codec.Dec in
  match D.byte dec with
  | 0 -> Null
  | 1 -> Int (D.zigzag dec)
  | 2 -> Float (D.float dec)
  | 3 -> Str (D.string dec)
  | n -> invalid_arg (Printf.sprintf "Value.decode: bad tag %d" n)

let encode_row row =
  let enc = Gg_util.Codec.Enc.create () in
  Gg_util.Codec.Enc.varint enc (Array.length row);
  Array.iter (encode enc) row;
  Gg_util.Codec.Enc.to_bytes enc

let decode_row bytes =
  let dec = Gg_util.Codec.Dec.of_bytes bytes in
  let n = Gg_util.Codec.Dec.varint dec in
  Array.init n (fun _ -> decode dec)

(* [encode_key] writes the same bytes as [encode] over each column, but
   into one exactly-sized string: a size pass, then a fill. Keys are
   encoded on every point lookup, so this skips the [Codec.Enc] buffer
   and its two copies. *)

let zigzag_bits i = (i lsl 1) lxor (i asr (Sys.int_size - 1))

(* Number of 7-bit groups in [u], read as unsigned (as [Codec.Enc] does). *)
let uvarint_size u =
  let rec go n u = if u land lnot 0x7F = 0 then n else go (n + 1) (u lsr 7) in
  go 1 u

let encoded_size = function
  | Null -> 1
  | Int i -> 1 + uvarint_size (zigzag_bits i)
  | Float _ -> 9
  | Str s ->
    let n = String.length s in
    1 + uvarint_size n + n

let put_uvarint b pos u =
  let rec go pos u =
    if u land lnot 0x7F = 0 then begin
      Bytes.set b pos (Char.unsafe_chr u);
      pos + 1
    end
    else begin
      Bytes.set b pos (Char.unsafe_chr (0x80 lor (u land 0x7F)));
      go (pos + 1) (u lsr 7)
    end
  in
  go pos u

(* Write [v] at [pos]; the position after it. *)
let put b pos v =
  match v with
  | Null ->
    Bytes.set b pos '\000';
    pos + 1
  | Int i ->
    Bytes.set b pos '\001';
    put_uvarint b (pos + 1) (zigzag_bits i)
  | Float f ->
    Bytes.set b pos '\002';
    Bytes.set_int64_le b (pos + 1) (Int64.bits_of_float f);
    pos + 9
  | Str s ->
    Bytes.set b pos '\003';
    let n = String.length s in
    let pos = put_uvarint b (pos + 1) n in
    Bytes.blit_string s 0 b pos n;
    pos + n

let encode_key key =
  let b = Bytes.create (Array.fold_left (fun n v -> n + encoded_size v) 0 key) in
  ignore (Array.fold_left (put b) 0 key : int);
  Bytes.unsafe_to_string b
