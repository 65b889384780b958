(** The per-epoch intra-node merge kernel — DeltaCRDTMerge pre-write
    (phase A), OCC validation (phase B), the optional SSI pivot pass and
    write-back (phase C) — extracted from [Node.do_merge] so it can be
    benchmarked and tested in isolation.

    Each record is resolved once: phase A looks up its table and its
    entry (the row for an update or delete, the temp entry for an
    insert) and keeps them, with its pre-write outcome, in a per-record
    slot that phases B and C read. A committed insert installs its temp
    entry as the row. Every phase is one sequential pass in record (or
    write-set) order; DESIGN.md §10 gives the slot pipeline and why
    abort reasons come from one ordered pass.

    The merge never builds a table's ordered index
    ({!Gg_storage.Table}): write-back updates it only where an ordered
    read has already built it. So an epoch costs the same whether or not
    SQL ever scans the table, and the first scan after a run of epochs
    pays the one-off build (a sort of the live rows) instead. *)

module Itbl : Hashtbl.S with type key = int
(** Int-keyed tables: the per-csn and per-epoch bookkeeping of the merge
    and of its callers. *)

val csn_key : Gg_crdt.Writeset.t -> int
(** The write set's csn packed into one int (node ids fit in 10 bits). *)

val lww_apply : Gg_storage.Db.t -> Gg_crdt.Writeset.t -> unit
(** GeoG-A's coordination-free apply: each record replaces its row iff
    the write set's csn is newer (last-writer-wins), stamping it; an
    absent row is inserted unless the record deletes it. *)

type t
(** The merge outcome: per-transaction commit/abort decisions plus
    counters. The decisions (and the database mutations performed by
    {!run}) are a deterministic function of the inputs alone. *)

val run :
  ?level:Params.merge_level ->
  db:Gg_storage.Db.t -> jobs:int -> ssi:bool ->
  Gg_crdt.Writeset.t list -> t
(** Merge one epoch's deduplicated write sets (distinct csns) into [db] (mutating it:
    header stamps, write-back, temp-area use and final clear — exactly
    the sequential [do_merge] data path). [jobs] must be 1: the kernel
    runs on the calling domain, and any other value raises
    [Invalid_argument] (the label stays for bench/e2e's replay). [ssi]
    enables the SSI pivot-abort pass.

    [level] (default [Row]) selects the conflict granularity
    (DESIGN.md §13). Under [Column], concurrent [Update]s to one row all
    commit — phase A still stamps the row header with the row-order
    winner but no longer aborts the losers, phase B admits an [Update]
    iff the row-claim join ({!Gg_crdt.Column.claim_join}) is not a
    delete, and phase C writes back only the cells each committed update
    won under the per-column LWW join ({!Gg_crdt.Column.join}).
    [Insert]/[Delete] keep row semantics at either level. Pass
    {!Params.effective_merge_level}, never the raw param: gossip
    re-applies whole row images and is row-level by construction. *)

val committed : t -> Gg_crdt.Writeset.t -> bool
(** Did this write set's transaction commit? (Keyed by its csn.) *)

val verdict : t -> Gg_crdt.Writeset.t -> Txn.abort_reason option
(** [None] when the transaction committed, else its abort reason — the
    {e first} failing record's reason in global record order, as in the
    sequential pass. [Some Write_conflict] for a write set the merge
    never saw. *)

val n_records : t -> int
val n_committed : t -> int
val n_dead : t -> int
