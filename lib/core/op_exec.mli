(** Key-level (stored-procedure) transaction execution against a
    replica's database — the op-level front end of the SQL executor's
    transaction buffer. Each op runs on one {!Gg_sql.Executor.Ctx}, so
    both front ends buffer, coalesce and record reads by the same rules
    and produce the same write sets and read sets for the same
    multi-master OCC. *)

type result = {
  reads : Gg_sql.Executor.read_record list;
  writes : Gg_crdt.Writeset.record list;
}

val exec :
  ?record_reads:bool ->
  ?col_mask:bool ->
  Gg_storage.Db.t -> Gg_workload.Op.txn -> (result, string) Stdlib.result
(** Execute all operations with read-your-writes semantics on a fresh
    {!Gg_sql.Executor.Ctx} created with [record_reads] and
    [~track_cols:col_mask]; [reads] is its read set and [writes] its
    write-set records.

    [record_reads] (default [false]): a [Read], [Add] or [Delete] that
    sees a committed row (no live own write of the key in front of it)
    records that row's read, once per (table, key), in first-read order.
    A [Write] is blind: it records no read, and a later read of its row
    sees the own write and records none. Off means nothing consumes a
    read's row: [reads] is [[]], the writes are the same, and a [Read]
    only resolves its table (an unknown table still fails) without
    encoding its key or probing the write buffer or the table.
    {!Execution} turns it on only at RR, SI and SSI, whose validation
    consumes the read set. Errors: [Add]/[Delete] on a missing row,
    [Insert] on an existing live row, unknown table, non-integer [Add]
    column. A plain [Read] of a missing key is a no-op (not an error).
    Writes per key coalesce by {!Gg_sql.Executor.Ctx.write}'s rule
    (last wins; insert-then-delete cancels).

    [col_mask] (default [false]) tracks column masks on [Update]
    records for column-level merge: an [Add] claims only its column,
    any whole-row write widens the mask to {!Gg_crdt.Column.full}, and
    coalesced writes take the union. Off, every record carries the full
    mask and the wire stream is byte-identical to the pre-column
    codec. *)
