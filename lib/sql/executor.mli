(** SQL execution inside a transaction context.

    The executor runs statements against a replica's {!Gg_storage.Db}
    while accumulating the transaction's write set (buffered writes with
    read-your-writes semantics) and, when asked, its read set (row
    versions observed). {!Ctx} is the one transaction buffer: the
    key-level front end ([Geogauss.Op_exec]) runs its ops on it too.
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
      union of their masks, and any whole-row write (an INSERT over an
      own DELETE, say) widens to {!Gg_crdt.Column.full} ({!write} is the
      one coalescing rule). Off, every record
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

      A read is checked against the reads already recorded by a linear
      scan while there are fewer than 16 of them, and against a (table,
      key) index, built at the first check past that, from then on. A
      statement that visits each committed row at most once (every
      single-table SELECT path, and the target rows of UPDATE and
      DELETE) appends its reads unchecked when no earlier statement
      recorded one. The first later read (the next statement's, or a
      join's nested loop, which can meet a row once per partner) checks
      against them all. *)

  val recorder :
    t -> table:string -> key_str:string -> header:Gg_storage.Row_header.t -> unit
  (** The read recorder: [recorder t ~table ~key_str ~header] records a
      read of the committed row [key_str] of [table], whose header is
      [header], into {!read_set}; a no-op unless the context records
      reads. *)

  val lookup :
    t ->
    Gg_storage.Table.t ->
    table:string ->
    key_str:string ->
    [ `Own of Gg_storage.Value.t array | `Base of Gg_storage.Table.entry | `Absent ]
  (** A key's row under the read-your-writes overlay (the
      [Gg_storage.Table.t] argument is [table]): [`Own data] when this
      transaction wrote it, [`Base]
      when the committed row shows through, [`Absent] when neither
      (deleted by this transaction, or no live row). Probes no hash
      table before the first buffered write. *)

  val write :
    t ->
    table:string ->
    key:Gg_storage.Value.t array ->
    key_str:string ->
    existed:bool ->
    ?cols:int ->
    Gg_storage.Value.t array option ->
    unit
  (** Buffer a write of [key] in [table]: [Some data] writes the row,
      [None] deletes it. Every write of both front ends goes through
      this one coalescing rule. A key's first write becomes an [Update]
      when [existed] (a committed row is live under the key), an
      [Insert] otherwise, or a [Delete]; [existed] is ignored for later
      writes of the key. Later writes coalesce into the first, in its
      place in the write order: a delete of an own insert cancels it, a
      delete of a committed row becomes a [Delete]; a row written over
      anything (an own delete or a cancelled insert too) becomes an
      [Update] of the committed row or an [Insert], last data wins.
      [cols] (default {!Gg_crdt.Column.full}) is the written columns;
      only an update of a committed row keeps a mask, and coalesced
      writes take the union. *)

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

type plan
(** A compiled statement. It binds the tables it names, the access path
    ({!Plan.access_path_table}), the WHERE filter, the projections, the
    sort and group keys and, for an aggregate query, one accumulator per
    aggregate with its step chosen at compile time. It holds no
    parameter value: every [?] is read when the plan runs. A plan runs
    one execution at a time, against the database it was compiled on,
    and stays valid while that database's {!Gg_storage.Db.catalog} does
    not move. *)

val compile : Gg_storage.Db.t -> Ast.stmt -> (plan, string) Stdlib.result
(** Compile a statement against a database. The errors that need no
    row and no parameter are reported here: an unknown table, an unknown
    or ambiguous column (in any clause), aggregates mixed with plain
    projections without GROUP BY, an unknown column in an INSERT column
    list, a SET of a key column, and CREATE TABLE without columns. *)

val run :
  Ctx.t ->
  plan ->
  params:Gg_storage.Value.t array ->
  (result, string) Stdlib.result
(** Execute a compiled statement in the context with these parameters.
    [Create_table] and [Create_index] act directly on the catalog (DDL
    is not transactional). The errors that need a row or a parameter are
    reported here: a parameter that was not supplied (only when it is
    evaluated), type errors, constraint violations and INSERT rows of
    the wrong arity. A failed run leaves the context's buffered writes
    from {e earlier} statements untouched.

    A statement on one table hands each row its scan visits to one
    consumer, which applies the filter, records the read (only when the
    context records reads) and then accumulates or projects the row.
    When the transaction has buffered no write on the table, the scan
    calls that consumer with the table's own entries. *)

val exec :
  Ctx.t ->
  Ast.stmt ->
  params:Gg_storage.Value.t array ->
  (result, string) Stdlib.result
(** {!compile} then {!run}: the same results, read set, writes and
    errors as running a plan of the statement compiled earlier on the
    same catalog. *)

val exec_sql :
  Ctx.t ->
  string ->
  params:Gg_storage.Value.t array ->
  (result, string) Stdlib.result
(** Parse then {!exec}. *)
