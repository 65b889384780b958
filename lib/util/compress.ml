(* LZ77 with 64 KiB window, 3-byte minimum match, greedy parsing over a
   hash table of 3-byte prefixes. Token stream:
     0x00 <byte>                      literal
     0x01 <varint len> <varint dist>  match (3 <= len <= 258, dist >= 1)
   The stream is prefixed with the uncompressed length. *)

let min_match = 3
let max_match = 258
let window = 1 lsl 16
let hash_bits = 15
let hash_size = 1 lsl hash_bits

(* [roll h d j] shifts byte [j] into hash [h]; shifting by 5 pushes the
   oldest byte out of the 15-bit mask, so a hash covers 3 bytes and
   [roll (hash3 d i) d (i + 3) = hash3 d (i + 1)]. *)
let roll h data j =
  ((h lsl 5) lxor Char.code (Bytes.unsafe_get data j)) land (hash_size - 1)

let hash3 data i = roll (roll (roll 0 data i) data (i + 1)) data (i + 2)

(* [Codec.Enc.varint] at [pos] of [out]; returns the next position. *)
let rec put_varint out pos v =
  if v < 0x80 then (Bytes.unsafe_set out pos (Char.unsafe_chr v); pos + 1)
  else begin
    Bytes.unsafe_set out pos (Char.unsafe_chr (0x80 lor (v land 0x7F)));
    put_varint out (pos + 1) (v lsr 7)
  end

(* Per-domain scratch, reused across calls so a steady stream of frames
   allocates only its outputs (a fresh 2^15-slot [head] per call is a
   256 KB major-heap block per frame).

   - [head] holds -1 in every slot between calls: a call dirties only
     the slots of the 3-byte prefixes it inserted, i.e. of positions
     [0 .. n-3], and re-hashing those to clear them costs O(n), not
     O(2^15). [clean] is false while a call is in flight, so a call
     that raised part-way (and so skipped its reset) makes the next one
     clear the whole table.
   - [prev] only grows and is never cleared. Chain walks start at a
     [head] slot, and every position [i] that this call stored in
     [head] had [prev.(i)] written by the same insertion; so by
     induction every chain entry was written during the current call
     and is a position below the current one, which is what makes the
     unchecked loads safe.
   - [out] only grows. An [n]-byte input needs at most [2n + 10] bytes:
     a varint prefix of at most 10, then 2 bytes per literal byte and
     at most 1 + 2 + 3 bytes per match of 3 or more. *)
type scratch = {
  head : int array;
  mutable prev : int array;
  mutable out : Bytes.t;
  mutable clean : bool;
}

let scratch =
  Gg_par.Pool.Local.create (fun () ->
      {
        head = Array.make hash_size (-1);
        prev = [||];
        out = Bytes.empty;
        clean = true;
      })

let compress input =
  let n = Bytes.length input in
  let s = Gg_par.Pool.Local.get scratch in
  let head = s.head in
  if not s.clean then Array.fill head 0 hash_size (-1);
  s.clean <- false;
  if Array.length s.prev < n then
    s.prev <- Array.make (max n (2 * Array.length s.prev)) 0;
  if Bytes.length s.out < (2 * n) + 10 then
    s.out <- Bytes.create (max ((2 * n) + 10) (2 * Bytes.length s.out));
  let prev = s.prev and out = s.out in
  let o = ref (put_varint out 0 n) in
  (* Positions [0 .. last] start a 3-byte prefix; while [!i <= last],
     [h] is the hash of the one at [!i]. *)
  let last = n - min_match in
  let h = ref (if last >= 0 then hash3 input 0 else 0) in
  let i = ref 0 in
  while !i < n do
    let p = !i in
    (* The longest match among the 32 most recent positions with the
       same hash, ties to the most recent. *)
    let best_len = ref 0 and best_pos = ref (-1) in
    if p <= last then begin
      let limit = Int.min max_match (n - p) in
      let candidate = ref (Array.unsafe_get head !h) and tries = ref 32 in
      while !candidate >= 0 && !tries > 0 do
        let c = !candidate and b = !best_len in
        if p - c > window then candidate := -1 (* chain only gets older *)
        else begin
          (* Only a candidate that also matches at [b] can be longer. *)
          if Bytes.unsafe_get input (c + b) = Bytes.unsafe_get input (p + b)
          then begin
            let k = ref 0 in
            while
              !k < limit
              && Bytes.unsafe_get input (p + !k)
                 = Bytes.unsafe_get input (c + !k)
            do
              incr k
            done;
            if !k > b then (best_len := !k; best_pos := c)
          end;
          (* No candidate beats a match of [limit]. *)
          candidate :=
            if !best_len = limit then -1 else Array.unsafe_get prev c;
          decr tries
        end
      done
    end;
    let len = if !best_len >= min_match then !best_len else 1 in
    if len > 1 then begin
      Bytes.unsafe_set out !o '\x01';
      o := put_varint out (put_varint out (!o + 1) len) (p - !best_pos)
    end
    else begin
      Bytes.unsafe_set out !o '\x00';
      Bytes.unsafe_set out (!o + 1) (Bytes.unsafe_get input p);
      o := !o + 2
    end;
    for k = p to Int.min (p + len - 1) last do
      Array.unsafe_set prev k (Array.unsafe_get head !h);
      Array.unsafe_set head !h k;
      if k < last then h := roll !h input (k + min_match)
    done;
    i := p + len
  done;
  if last >= 0 then h := hash3 input 0;
  for k = 0 to last do
    Array.unsafe_set head !h (-1);
    if k < last then h := roll !h input (k + min_match)
  done;
  s.clean <- true;
  Bytes.sub out 0 !o

(* Output bound of a well-formed stream: a 2-byte literal yields 1
   byte and a match token (>= 3 bytes) at most [max_match] = 258, so
   no stream expands more than 86x. Checking the untrusted length
   prefix against it before [Buffer.create] keeps a forged prefix from
   allocating (or failing with [Out_of_memory]). *)
let max_expansion = max_match / 3

let decompress input =
  let dec = Codec.Dec.of_bytes input in
  try
    let n = Codec.Dec.varint dec in
    if n > max_expansion * Bytes.length input then
      invalid_arg "Compress.decompress: length prefix exceeds stream";
    let out = Buffer.create n in
    while Buffer.length out < n do
      match Codec.Dec.byte dec with
      | 0x00 -> Buffer.add_char out (Char.chr (Codec.Dec.byte dec))
      | 0x01 ->
        let len = Codec.Dec.varint dec in
        let dist = Codec.Dec.varint dec in
        if
          dist <= 0 || dist > Buffer.length out || len < min_match
          || len > max_match
        then
          invalid_arg "Compress.decompress: corrupt stream";
        let start = Buffer.length out - dist in
        (* Overlapping copies are meaningful (run-length encoding). *)
        for k = 0 to len - 1 do
          Buffer.add_char out (Buffer.nth out (start + k))
        done
      | _ -> invalid_arg "Compress.decompress: bad token"
    done;
    if Buffer.length out <> n then
      invalid_arg "Compress.decompress: length mismatch";
    Buffer.to_bytes out
  with Codec.Dec.Truncated ->
    invalid_arg "Compress.decompress: truncated stream"
