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

let hash3 data i =
  let a = Char.code (Bytes.get data i)
  and b = Char.code (Bytes.get data (i + 1))
  and c = Char.code (Bytes.get data (i + 2)) in
  ((a lsl 10) lxor (b lsl 5) lxor c) land (hash_size - 1)

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
     [head] had [prev.(i)] written by the same [insert]; so by
     induction every [prev] entry a walk reads was written during the
     current call, and stale entries from earlier, longer inputs are
     unreachable.
   - [out] is emptied, not reallocated, so it stops growing once it
     has held the longest compressed stream. *)
type scratch = {
  head : int array;
  mutable prev : int array;
  out : Codec.Enc.t;
  mutable clean : bool;
}

let scratch =
  Gg_par.Pool.Local.create (fun () ->
      {
        head = Array.make hash_size (-1);
        prev = [||];
        out = Codec.Enc.create ();
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
  let prev = s.prev in
  let enc = s.out in
  Codec.Enc.clear enc;
  Codec.Enc.varint enc n;
  let match_len i j =
    let limit = min max_match (n - i) in
    let rec go k =
      if k < limit && Bytes.get input (i + k) = Bytes.get input (j + k) then
        go (k + 1)
      else k
    in
    go 0
  in
  let insert i =
    if i + min_match <= n then begin
      let h = hash3 input i in
      prev.(i) <- head.(h);
      head.(h) <- i
    end
  in
  let i = ref 0 in
  while !i < n do
    let best_len = ref 0 and best_pos = ref (-1) in
    if !i + min_match <= n then begin
      let h = hash3 input !i in
      let candidate = ref head.(h) in
      let tries = ref 32 in
      while !candidate >= 0 && !tries > 0 do
        if !i - !candidate <= window then begin
          let len = match_len !i !candidate in
          if len > !best_len then begin
            best_len := len;
            best_pos := !candidate
          end;
          candidate := prev.(!candidate);
          decr tries
        end
        else begin
          candidate := -1 (* beyond window: chain only gets older *)
        end
      done
    end;
    if !best_len >= min_match then begin
      Codec.Enc.byte enc 0x01;
      Codec.Enc.varint enc !best_len;
      Codec.Enc.varint enc (!i - !best_pos);
      for k = !i to !i + !best_len - 1 do
        insert k
      done;
      i := !i + !best_len
    end
    else begin
      Codec.Enc.byte enc 0x00;
      Codec.Enc.byte enc (Char.code (Bytes.get input !i));
      insert !i;
      incr i
    end
  done;
  for k = 0 to n - min_match do
    head.(hash3 input k) <- -1
  done;
  s.clean <- true;
  Codec.Enc.to_bytes enc

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

let ratio b =
  let n = Bytes.length b in
  if n = 0 then 1.0
  else float_of_int (Bytes.length (compress b)) /. float_of_int n
