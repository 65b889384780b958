module Writeset = Gg_crdt.Writeset
module Itbl = Epoch_merge.Itbl

type batch = {
  mutable txns : Writeset.t list;  (* newest first *)
  keys : unit Itbl.t;  (* packed csns of [txns] *)
  mutable eof : bool;
  mutable expected : int;  (* count announced by the EOF; -1 until then *)
  mutable committed : bool;
}

type record = {
  mutable pending : Writeset.t list;
  mutable sealed : Writeset.t list;
  mutable waiting : Txn.t list;
  mutable notify_at : int;
}

type entry = { local : record; peers : batch array (* by peer id *) }
type t = { records : entry Itbl.t; n_peers : int; awaits_commit : bool }

let create ~peers ~awaits_commit =
  { records = Itbl.create 64; n_peers = peers; awaits_commit }

let entry t cen =
  match Itbl.find_opt t.records cen with
  | Some e -> e
  | None ->
    let committed = not t.awaits_commit in
    let batch _ =
      { txns = []; keys = Itbl.create 8; eof = false; expected = -1; committed }
    in
    let local = { pending = []; sealed = []; waiting = []; notify_at = 0 } in
    let e = { local; peers = Array.init t.n_peers batch } in
    Itbl.replace t.records cen e;
    e

let get t cen = (entry t cen).local
let batch t ~cen ~peer = (entry t cen).peers.(peer)

let add t ~cen ~peer txns =
  let b = batch t ~cen ~peer in
  List.iter
    (fun ws ->
      let k = Epoch_merge.csn_key ws in
      if not (Itbl.mem b.keys k) then begin
        Itbl.replace b.keys k ();
        b.txns <- ws :: b.txns
      end)
    txns

let eof t ~cen ~peer ~count =
  let b = batch t ~cen ~peer in
  b.eof <- true;
  b.expected <- max b.expected count

let commit t ~cen ~peer = (batch t ~cen ~peer).committed <- true
let received t ~cen ~peer = Itbl.length (batch t ~cen ~peer).keys

let complete t ~cen ~peer =
  let b = batch t ~cen ~peer in
  b.eof && Itbl.length b.keys >= b.expected && b.committed

let incomplete t ~cen ~self members =
  List.filter (fun p -> p <> self && not (complete t ~cen ~peer:p)) members

let collect t ~cen ~self members =
  let e = entry t cen in
  e.local.sealed
  @ List.concat_map
      (fun p -> if p = self then [] else List.rev e.peers.(p).txns)
      members

let remove t cen = Itbl.remove t.records cen

let drop_through t ~lsn =
  Itbl.filter_map_inplace
    (fun cen e -> if cen <= lsn then None else Some e)
    t.records

let reset t = Itbl.reset t.records

let waiting t =
  Itbl.fold (fun _ e n -> n + List.length e.local.waiting) t.records 0

let held t = List.sort compare (Itbl.fold (fun cen _ l -> cen :: l) t.records [])

let missing_eof t ~peer ~lsn ~upto =
  let missing = ref [] in
  for cen = upto downto lsn + 1 do
    match Itbl.find_opt t.records cen with
    | Some e when e.peers.(peer).eof -> ()
    | _ -> missing := cen :: !missing
  done;
  !missing
