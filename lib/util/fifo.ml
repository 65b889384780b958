(* The live elements are [buf.((head + i) land (capacity - 1))] for
   [0 <= i < len]; the capacity is a power of two and every other slot
   holds [filler]. *)
type 'a t = {
  filler : 'a;
  mutable buf : 'a array;
  mutable head : int;
  mutable len : int;
}

let create ~filler = { filler; buf = Array.make 16 filler; head = 0; len = 0 }

let length t = t.len
let is_empty t = t.len = 0

(* Double the ring, unwrapping the live elements to the front. *)
let grow t =
  let cap = Array.length t.buf in
  let buf = Array.make (2 * cap) t.filler in
  let first = cap - t.head in
  Array.blit t.buf t.head buf 0 first;
  Array.blit t.buf 0 buf first (cap - first);
  t.buf <- buf;
  t.head <- 0

let push t x =
  if t.len = Array.length t.buf then grow t;
  t.buf.((t.head + t.len) land (Array.length t.buf - 1)) <- x;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Fifo.pop: empty";
  let x = t.buf.(t.head) in
  t.buf.(t.head) <- t.filler;
  t.head <- (t.head + 1) land (Array.length t.buf - 1);
  t.len <- t.len - 1;
  x

let clear t =
  Array.fill t.buf 0 (Array.length t.buf) t.filler;
  t.head <- 0;
  t.len <- 0
