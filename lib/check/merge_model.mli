(** A reference model of the epoch merge: paper Algorithm 2
    (DeltaCRDTMerge) and its validation, written from the paper's rules
    and DESIGN.md §2's clarifications over immutable values. The kernel
    ({!Geogauss.Epoch_merge}) and the ACI oracle are checked against it,
    so it picks every winner with {!Gg_crdt.Meta.wins_over} (through the
    {!Gg_crdt.Column} joins) and shares no code with the kernel.

    + {b Phase A}, in record order: each update or delete of a live row
      joins its claim into the row's header, each insert of a key with
      no live row joins into the key's insert header, and a record fails
      on an unknown table, a duplicate key, a missing row or a better
      header (a column-level update that loses lives on). A write set
      keeps its first failing record's reason, and the row's winning
      claim stamps its header even if that write set aborts.
    + {b Phase B}: a write set phase A left alive commits iff it still
      holds every row — it won the header of each key it inserts, each
      row it deletes and (at row level) each row it updates; a
      column-level update holds unless a delete won the row.
    + {b SSI} (when asked): a committed write set that reads a row
      another writes and writes a row another reads aborts.
    + {b Write-back}, in write-set order, for the committed write sets:
      an insert installs or revives its row stamped with its meta, a
      delete tombstones it (the data stays), an update overwrites it —
      at column level only the cells it won ({!join_cells} of the
      committed write sets). *)

module Rows : Map.S with type key = string * string
(** Keyed by (table name, encoded primary key). *)

type row = {
  meta : Gg_crdt.Meta.t;  (** the header's [{sen, csn, cen}] *)
  deleted : bool;
  data : Gg_storage.Value.t array;
}

type state = { tables : string list; rows : row Rows.t }
(** The tables that exist and every row, tombstones included. *)

val join_headers : Gg_crdt.Writeset.t list -> Gg_crdt.Column.claim Rows.t
(** Each row's Lemma 2 winner over every record of the write sets (any
    op), as the join of the records' claims: [c_delete] says whether the
    winning record deletes. The write sets must share one commit
    epoch. *)

val join_cells :
  Gg_crdt.Writeset.t list -> Gg_crdt.Column.cell option array Rows.t
(** Each updated row's per-column winner over the cells the write sets'
    updates cover, under {!Gg_crdt.Column.join}. *)

type outcome = {
  verdicts : Geogauss.Txn.abort_reason option list;
      (** one per write set, in input order; [None] = committed *)
  n_records : int;
  n_committed : int;
  after : state;
}

val merge :
  level:Geogauss.Params.merge_level -> ssi:bool -> state ->
  Gg_crdt.Writeset.t list -> outcome
(** Merge one epoch's write sets (distinct csns, one commit epoch newer
    than every header in the state). *)
