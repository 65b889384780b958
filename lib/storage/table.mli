(** In-memory row store with an open-addressed primary-key hash index,
    an ordered index for range scans (a sorted array of the live rows),
    and a per-epoch temporary table for insertion conflicts (paper
    §4.2.1). Nothing this module exposes
    depends on the hash index's slot order: {!iter_all} is unordered by
    contract, and {!iter_sorted}, the walk the digest and [Checkpoint]
    share, sorts.

    Every row carries a {!Row_header.t}. Deletions leave a tombstone in
    the hash index (so concurrent writers observe "row deleted" and
    abort, Algorithm 2 line 3–4) but drop the row from the ordered index
    so scans skip it.

    {b The ordered index is lazy.} It is a dense array of the live rows
    sorted by key, built on the first ordered read — {!scan},
    {!scan_range}, {!scan_prefix} or {!create_index} — by one sort of
    the live rows (O(n log n)). Until then {!load}, {!insert_committed},
    {!install_temp}, {!delete} and {!revive} skip it, and {!copy} of a
    table without secondary indexes returns a table whose ordered index
    is unbuilt; a table that is only ever read by key, as on the
    op-level workloads, never pays for it.
    Once built, each insert, delete and revive keeps it current with a
    binary search and a copy of the array one row longer or shorter:
    O(n) per call. {!write} changes no key and leaves it alone, so
    updates, the only writes the SQL workloads make to the tables they
    scan, cost nothing here. Nothing else observable
    depends on whether it has been built.

    {b Scans and writers.} A scan callback must not insert or delete
    rows of the table it scans and expect that scan to reflect it: the
    scan walks the array as it stood when the scan began, so a row the
    callback inserts is not visited and a row it deletes later in key
    order still is. A callback may raise (the scan ends with it) and may
    start another scan of the same table (the join's nested loop
    does).

    {b Row arrays are immutable once installed.} The array an entry's
    [data] points to is never written in place: every writer builds a
    fresh array (or copies the old one and changes the copy) and installs
    it with {!write}, {!revive}, {!insert_committed} or {!install_temp},
    and {!load} takes ownership of the array it is given. {!copy} relies
    on this to share every row array between a table and its copies, so
    an in-place write to one would show in all of them. *)

type entry = {
  key : Value.t array;
  key_str : string;
  mutable data : Value.t array;
  header : Row_header.t;
}

type t

val create : Schema.t -> t
val schema : t -> Schema.t

(** {1 Loading and direct access} *)

val load : t -> Value.t array -> unit
(** Bulk-load a full row (initial database population). Raises
    [Invalid_argument] on schema violation or duplicate key. *)

val find : t -> string -> entry option
(** FindRow by encoded key; returns tombstones too (check
    [header.deleted]). *)

val find_live : t -> string -> entry option
(** Like {!find} but [None] for tombstones. *)

val mem_live : t -> string -> bool

(** {1 Mutation (called by the OCC write-back path)} *)

val write : t -> entry -> Value.t array -> unit
(** Replace an entry's data with a fresh array (see the module
    comment). *)

val delete : t -> entry -> unit
(** Tombstone the entry and remove it from the ordered index. *)

val revive : t -> entry -> Value.t array -> unit
(** Un-tombstone (an insert over a deleted key) with fresh data. *)

val insert_committed :
  t -> key:Value.t array -> key_str:string -> data:Value.t array ->
  header:Row_header.t -> entry
(** Install a freshly committed insert into the main indexes and return
    its entry. [key_str] must be [Value.encode_key key] (the caller
    already holds it). Replaces any tombstone. Raises [Invalid_argument]
    if a live row exists. *)

val install_temp : t -> entry -> Value.t array -> unit
(** [install_temp t e data] commits the temp entry [e] (from
    {!temp_add}) as the row itself, with [data] and the header phase A
    stamped: no key is re-encoded and no entry or header is allocated.
    Same contract as {!insert_committed}: a tombstone is replaced, a
    live row raises [Invalid_argument]. The entry stays in the temp area
    until {!temp_clear}. *)

(** {1 Temporary insert table}

    One hash table per table, keyed by encoded key. Nothing iterates it,
    so its layout is unobservable. *)

val key_hash : string -> int
(** Deterministic non-negative hash of an encoded key ([Hashtbl.hash]
    with the default seed — stable across runs and processes). *)

val temp_find : t -> string -> entry option
val temp_add : t -> key:Value.t array -> key_str:string -> entry
(** Create (or return the existing) temp entry for an in-flight insert. *)

val temp_clear : t -> unit
(** Drop all temp entries (end of epoch). *)

(** {1 Scans} *)

val scan : ?keep:(Value.t array -> bool) -> t -> f:(entry -> unit) -> unit
(** All live rows in primary-key order. Builds the ordered index if no
    ordered read has yet (see the module comment). With [keep], only
    the rows whose data it holds of reach [f]; the walk tests it
    inline, so a row it rejects costs one call. *)

val iter_all : t -> f:(entry -> unit) -> unit
(** Every entry including tombstones, in no particular order. *)

val iter_sorted : t -> (entry -> unit) -> unit
(** Every entry including tombstones, in ascending [key_str] order: the
    order {!digest} and [Checkpoint] serialize, independent of slot
    order and insertion history. Each call sorts one fresh array of
    {!total_count} entries. *)

val scan_range :
  ?keep:(Value.t array -> bool) ->
  t ->
  ?lo:Value.t array ->
  ?hi:Value.t array ->
  (entry -> unit) ->
  unit
(** Live rows with [lo <= key <= hi] in key order (missing bound =
    unbounded). [hi] is compared against the first [Array.length hi] key
    columns only, so a one-column [hi] on a composite key keeps every key
    whose leading column is [<= hi.(0)]; a shorter [lo] already sorts
    before every key it prefixes. The scan finds the first key [>= lo]
    and the first key past [hi] by binary search, then walks the array
    between them: nothing is allocated per scan or per visited row.
    [keep] filters as in {!scan}. *)

val scan_prefix : t -> prefix:Value.t array -> (entry -> unit) -> unit
(** Live rows whose key starts with [prefix], in key order. Seeks and
    walks like {!scan_range}, stopping at the first key without the
    prefix. *)

(** {1 Secondary indexes}

    Non-unique in-memory indexes over arbitrary column subsets,
    maintained through every write/delete/revive. Only live rows are
    indexed. *)

val create_index : t -> name:string -> cols:string list -> unit
(** Build an index over existing rows, adding them in primary-key order
    (this builds the ordered index). Raises [Invalid_argument] on a
    duplicate name or unknown column. *)

val index_names : t -> string list

val index_count : t -> int
(** How many secondary indexes the table has. No index is ever dropped,
    so the count grows with every {!create_index}. *)

val index_cols : t -> name:string -> int array option

val index_lookup : t -> name:string -> key:Value.t array -> entry list
(** Live entries whose indexed columns equal [key]. Raises
    [Invalid_argument] on an unknown index. *)

(** {1 Introspection} *)

val live_count : t -> int
val total_count : t -> int
(** Including tombstones. *)

val copy : t -> t
(** Copy of every entry with its own header, sharing each row array
    with the source (rows, headers, tombstones; temp entries are not
    copied). Used to give each replica the loaded image and for state
    transfer to recovering replicas. Its secondary indexes are filled in
    primary-key order, by one sort of the live rows that the copy keeps
    as its ordered index; without secondary indexes the copy's ordered
    index is unbuilt. *)

val purge_tombstones : t -> before_cen:int -> int
(** Garbage-collect tombstones whose deleting epoch precedes
    [before_cen]; returns how many were removed. Safe once every
    replica's snapshot has passed that epoch — a write referencing the
    key after the purge behaves like a write to a never-existing row,
    which the paper treats the same as a deleted one. A table that
    holds no tombstone returns 0 without walking its rows. *)

val digest : t -> string
(** Hex MD5 of the table's canonical serialization, used for
    replica-equality checks: the table name, then every entry in
    {!iter_sorted} order as its key, tombstone flag, sen, cen, csn and,
    for a live row, its data. The stream is hashed in row-aligned chunks
    of at least 1 KiB, each chained to the MD5 of the one before, so a
    digest's memory is one small encoder plus the sort's array of
    entries, not the table's serialized size. Cached behind a per-table
    mutation counter: digesting an unchanged table is O(1). Only
    equality between digests means anything. *)

val touch : t -> unit
(** Invalidate the digest cache. Every mutator in this module touches
    automatically; code that stamps a committed row's header in place
    (the merge pre-write path) must call this itself. *)

val version : t -> int
(** Mutation counter (monotone; bumped by every digest-relevant
    change). *)
