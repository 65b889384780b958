module Batch = Gg_crdt.Writeset.Batch

type t = {
  batches : (int * int, Batch.t) Hashtbl.t;  (* (node, cen) *)
  last_sealed : int array;
}

let create ~n =
  { batches = Hashtbl.create 1024; last_sealed = Array.make n (-1) }

let put t (b : Batch.t) =
  if not b.eof then invalid_arg "Backup.put: only sealed (eof) batches";
  Hashtbl.replace t.batches (b.node, b.cen) b;
  if b.cen > t.last_sealed.(b.node) then t.last_sealed.(b.node) <- b.cen

let last_sealed t ~node = t.last_sealed.(node)
let get t ~node ~cen = Hashtbl.find_opt t.batches (node, cen)
let count t = Hashtbl.length t.batches
