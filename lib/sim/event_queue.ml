(* [pos] is the entry's slot in [heap], kept current by every move so
   [cancel] can find it; -1 once the entry is popped or cancelled. *)
type 'a entry = { time : int; seq : int; payload : 'a; mutable pos : int }
type 'a handle = 'a entry

(* Slots at and past [size] hold [vacant], an entry with the filler as
   its payload, so an event that has fired or been cancelled is no
   longer reachable from the heap. *)
type 'a t = {
  mutable heap : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
  vacant : 'a entry;
}

let create ~filler =
  {
    heap = [||];
    size = 0;
    next_seq = 0;
    vacant = { time = max_int; seq = max_int; payload = filler; pos = -1 };
  }

let is_empty t = t.size = 0
let length t = t.size

let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow t =
  let cap = Array.length t.heap in
  if t.size = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let nheap = Array.make ncap t.vacant in
    Array.blit t.heap 0 nheap 0 t.size;
    t.heap <- nheap
  end

let set t i e =
  t.heap.(i) <- e;
  e.pos <- i

(* Move [e] up from the hole at [i] to its place. *)
let rec sift_up t i e =
  if i = 0 then set t 0 e
  else
    let parent = (i - 1) / 2 in
    let p = t.heap.(parent) in
    if before e p then begin
      set t i p;
      sift_up t parent e
    end
    else set t i e

(* Move [e] down from the hole at [i] to its place. *)
let rec sift_down t i e =
  let l = (2 * i) + 1 in
  if l >= t.size then set t i e
  else
    let r = l + 1 in
    let c = if r < t.size && before t.heap.(r) t.heap.(l) then r else l in
    let child = t.heap.(c) in
    if before child e then begin
      set t i child;
      sift_down t c e
    end
    else set t i e

let add t ~time payload =
  let entry = { time; seq = t.next_seq; payload; pos = t.size } in
  t.next_seq <- t.next_seq + 1;
  grow t;
  t.size <- t.size + 1;
  sift_up t (t.size - 1) entry;
  entry

let push t ~time payload = ignore (add t ~time payload)

let peek_time t = if t.size = 0 then None else Some t.heap.(0).time

(* Take the entry at slot [i] out of the heap: the last entry fills the
   hole and sifts whichever way restores the order, and its old slot
   turns vacant. *)
let remove_at t i =
  let e = t.heap.(i) in
  e.pos <- -1;
  t.size <- t.size - 1;
  let last = t.heap.(t.size) in
  t.heap.(t.size) <- t.vacant;
  if i < t.size then begin
    if i > 0 && before last t.heap.((i - 1) / 2) then sift_up t i last
    else sift_down t i last
  end;
  e

let pop t =
  if t.size = 0 then None
  else
    let top = remove_at t 0 in
    Some (top.time, top.payload)

let cancel t h =
  if h.pos >= 0 && h.pos < t.size && t.heap.(h.pos) == h then
    ignore (remove_at t h.pos)
