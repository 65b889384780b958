(** SQL execution inside a transaction context.

    The executor runs statements against a replica's {!Gg_storage.Db}
    while accumulating the transaction's write set (buffered writes with
    read-your-writes semantics) and, when asked, its read set (row
    versions observed).
    Nothing touches the shared tables until the OCC write-back phase; the
    write set produced here is exactly what GeoGauss ships to its
    peers. *)

type read_record = {
  r_table : string;
  r_key_str : string;
  r_csn : Gg_storage.Csn.t;  (** row version at read time *)
  r_cen : int;  (** row's commit epoch at read time *)
}

module Ctx : sig
  type t

  val create : ?record_reads:bool -> ?track_cols:bool -> Gg_storage.Db.t -> t
  (** [record_reads] (default [false]) builds the read set. Only RR and
      SI read validation and SSI's shipped read keys consume it, so the
      execution stage turns it on at those levels and leaves it off at
      RC; off, {!read_set} is [[]] and reading a row costs no allocation
      for it. Results and write sets are the same either way.

      [track_cols] (default [false]) captures UPDATE column masks on the
      write set for column-level merge: a [SET] list covering only
      maskable columns produces a masked record
      ({!Gg_crdt.Writeset.record.cols}); coalesced updates take the
      union of their masks, and any whole-row write (INSERT-over-delete,
      re-insert) widens to {!Gg_crdt.Column.full}. Off, every record
      carries the full mask — the pre-column wire stream, byte for
      byte. *)

  val db : t -> Gg_storage.Db.t
  val track_cols : t -> bool

  val read_set : t -> read_record list
  (** [[]] unless the context was created with [~record_reads:true].
      In read order (first read first), at most one record per (table,
      key): a row read several times keeps its {e first} observation,
      which is what RR validation compares against. Only rows a
      statement keeps are recorded (after its WHERE), never the own
      inserts of the transaction.

      The (table, key) dedup index is built only when a repeat is
      possible. A statement that visits each committed row at most once
      (every single-table SELECT path, and the target rows of UPDATE
      and DELETE) appends its reads unprobed when no earlier statement
      recorded one. The first later read (the next statement's, or a
      join's nested loop, which can meet a row once per partner) indexes
      those reads and then probes. *)

  val writeset_records : t -> Gg_crdt.Writeset.record list
  (** Net effect of the buffered writes, in first-write order.
      Insert-then-delete pairs cancel out. *)

  val has_writes : t -> bool
end

type result = {
  columns : string list;
  rows : Gg_storage.Value.t array list;
  affected : int;
}

val exec :
  Ctx.t ->
  Ast.stmt ->
  params:Gg_storage.Value.t array ->
  (result, string) Stdlib.result
(** Execute one statement. [Create_table] acts directly on the catalog
    (DDL is not transactional). Errors (constraint violations, type
    errors, unknown tables/columns) are returned as [Error _]; the
    context's buffered writes from {e earlier} statements are
    untouched. *)

val exec_sql :
  Ctx.t ->
  string ->
  params:Gg_storage.Value.t array ->
  (result, string) Stdlib.result
(** Parse then {!exec}. *)
