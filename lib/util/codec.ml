module Enc = struct
  (* A growable byte buffer, like [Buffer.t], but its storage is visible
     here so [digest] can hash the contents in place. *)
  type t = { mutable buf : bytes; mutable len : int }

  let create () = { buf = Bytes.create 256; len = 0 }
  let clear t = t.len <- 0
  let length t = t.len
  let to_bytes t = Bytes.sub t.buf 0 t.len
  let digest t = Digest.subbytes t.buf 0 t.len

  (* Double the storage until [more] further bytes fit. *)
  let grow t more =
    let cap = ref (2 * Bytes.length t.buf) in
    while t.len + more > !cap do
      cap := 2 * !cap
    done;
    let buf = Bytes.create !cap in
    Bytes.blit t.buf 0 buf 0 t.len;
    t.buf <- buf

  let byte t v =
    if t.len >= Bytes.length t.buf then grow t 1;
    Bytes.unsafe_set t.buf t.len (Char.unsafe_chr (v land 0xFF));
    t.len <- t.len + 1

  let varint t v =
    if v < 0 then invalid_arg "Codec.Enc.varint: negative";
    let rec go v =
      if v < 0x80 then byte t v
      else begin
        byte t (0x80 lor (v land 0x7F));
        go (v lsr 7)
      end
    in
    go v

  let zigzag t v =
    (* Zigzag over the full 63-bit pattern; [u] may print as negative but
       the [lsr]-based loop treats it as unsigned. *)
    let u = (v lsl 1) lxor (v asr (Sys.int_size - 1)) in
    let rec go u =
      if u land lnot 0x7F = 0 then byte t u
      else begin
        byte t (0x80 lor (u land 0x7F));
        go (u lsr 7)
      end
    in
    go u

  let float t f =
    let bits = Int64.bits_of_float f in
    for i = 0 to 7 do
      byte t (Int64.to_int (Int64.shift_right_logical bits (8 * i)) land 0xFF)
    done

  let raw t s =
    let n = String.length s in
    if t.len + n > Bytes.length t.buf then grow t n;
    Bytes.unsafe_blit_string s 0 t.buf t.len n;
    t.len <- t.len + n

  let string t s =
    varint t (String.length s);
    raw t s

  let bool t b = byte t (if b then 1 else 0)
end

module Dec = struct
  type t = { data : bytes; mutable pos : int }

  exception Truncated

  let of_bytes data = { data; pos = 0 }
  let pos t = t.pos
  let at_end t = t.pos >= Bytes.length t.data

  let byte t =
    if t.pos >= Bytes.length t.data then raise Truncated;
    let v = Char.code (Bytes.get t.data t.pos) in
    t.pos <- t.pos + 1;
    v

  let varint t =
    let rec go shift acc =
      if shift > 63 then raise Truncated;
      let b = byte t in
      let acc = acc lor ((b land 0x7F) lsl shift) in
      if b land 0x80 = 0 then acc else go (shift + 7) acc
    in
    go 0 0

  let zigzag t =
    let v = varint t in
    (v lsr 1) lxor (-(v land 1))

  let float t =
    let bits = ref 0L in
    for i = 0 to 7 do
      bits := Int64.logor !bits (Int64.shift_left (Int64.of_int (byte t)) (8 * i))
    done;
    Int64.float_of_bits !bits

  let string t =
    let len = varint t in
    if t.pos + len > Bytes.length t.data then raise Truncated;
    let s = Bytes.sub_string t.data t.pos len in
    t.pos <- t.pos + len;
    s

  let sub_string t ~pos ~len =
    if pos < 0 || len < 0 || pos + len > Bytes.length t.data then raise Truncated;
    Bytes.sub_string t.data pos len

  let bool t = byte t <> 0
end
