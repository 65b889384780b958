(** Write sets — the delta states GeoGauss replicates (paper §3).

    A transaction's write set is the list of rows it wrote, each a full
    row image plus operation kind. Write sets are the only thing
    exchanged between masters: together with {!Meta.t} they form the
    delta-state CRDT update merged by {!Merge}.

    Hot-path note: records memoize their encoded primary key and batches
    memoize their wire form, so key encoding and encode+compress each
    happen at most once per object lifetime. Records and write sets are
    treated as immutable after construction — build them with
    {!make_record} / {!make} / {!with_commit} rather than mutating
    fields, or the caches go stale. *)

type op = Insert | Update | Delete

type record = {
  table : string;
  key : Gg_storage.Value.t array;
  op : op;
  data : Gg_storage.Value.t array;  (** empty for [Delete] *)
  cols : int;
      (** column mask of an [Update] ({!Column.full} = whole row image).
          Column-level merge resolves only the covered columns; masked
          records travel in a compact wire form carrying just those
          values (uncovered slots decode as [Null] and are never read).
          Always {!Column.full} under row-level merge, which keeps its
          wire stream byte-identical to the pre-column codec. *)
  mutable key_enc : string;
      (** memoized [Value.encode_key key]; [""] until first use. Use
          {!key_str}, never read this field directly. *)
}

type t = {
  meta : Meta.t;
  records : record list;
  read_keys : (string * string) list;
      (** (table, encoded key) read-set keys, shipped only under the SSI
          extension (§4.3 sketches this and rejects it for WAN cost; we
          make the cost measurable) *)
  mutable enc_size : int;
      (** memoized {!encoded_size}; [-1] until first use *)
}

val make :
  ?read_keys:(string * string) list ->
  meta:Meta.t ->
  records:record list ->
  unit ->
  t

val make_record :
  ?key_str:string ->
  ?cols:int ->
  table:string ->
  key:Gg_storage.Value.t array ->
  op:op ->
  data:Gg_storage.Value.t array ->
  unit ->
  record
(** Pass [key_str] when the caller already holds [Value.encode_key key]
    (the executors do) to seed the cache and skip the encode entirely.
    [cols] (default {!Column.full}) is only meaningful on [Update]s. *)

val with_commit : t -> meta:Meta.t -> read_keys:(string * string) list -> t
(** Fresh write set with commit-time [meta]/[read_keys] substituted and
    size cache invalidated; the records (and their key caches) are
    shared. *)

val key_str : record -> string
(** Encoded primary key (hash-index key). Memoized: encodes on first
    call, returns the cache afterwards. *)

val encode : Gg_util.Codec.Enc.t -> t -> unit
val decode : Gg_util.Codec.Dec.t -> t

val encoded_size : t -> int
(** Size of the uncompressed binary encoding in bytes (memoized). *)

(** {1 Epoch batches}

    At the end of each epoch a node packages all write sets with that
    commit epoch number and ships them to every peer. An [eof] batch may
    carry zero transactions — the "empty message" of §4.2.3 that prevents
    remote peers from waiting forever. Mini-batches ([eof = false])
    support the pipelining optimisation of §5.1. *)

module Batch : sig
  type ws = t

  type t = {
    node : int;  (** originating replica *)
    cen : int;  (** commit epoch of every transaction inside *)
    txns : ws list;
    eof : bool;  (** final batch of this node's epoch [cen] *)
    count : int;
        (** on [eof] batches: total transactions the node committed into
            this epoch, across all mini-batches. Receivers use it to
            verify completeness even when the network reorders
            mini-batches after the EOF marker. *)
    span : int;
        (** origin causal span id ({!Gg_obs.Obs.new_span} of the sender);
            [0] when tracing was off. Carried in a fixed 8-byte header
            outside the compressed payload, so the wire size never
            depends on whether tracing is enabled. *)
    mutable wire : bytes option;
        (** memoized {!to_wire} result; use the functions, not the
            field *)
  }

  val make :
    node:int ->
    cen:int ->
    txns:ws list ->
    eof:bool ->
    ?count:int ->
    ?span:int ->
    unit ->
    t
  (** [count] defaults to [List.length txns]; [span] to [0]. *)

  val to_wire : t -> bytes
  (** Encode then compress (the paper pipes write sets through protobuf +
      gzip). Memoized: the first call pays encode+compress, later calls
      (and {!wire_size}) return the cached bytes. *)

  val of_wire : bytes -> t
  (** Raises [Invalid_argument] on corrupt input. The decoded batch
      retains [bytes] as its cached wire form. *)

  val of_wire_opt : bytes -> t option
  (** [None] on truncated or corrupt input instead of raising — the form
      receivers use on frames that crossed the (faulty) network, so a
      mangled payload degrades to a lost message handled by the
      batch-loss repair path rather than a crash. *)

  val wire_size : t -> int
  (** [Bytes.length (to_wire t)], via the cache. *)

  val encode_count : unit -> int
  (** Number of actual encode+compress passes performed on the calling
      domain (cache hits excluded) — instrumentation for the e2e
      benchmark. Domain-local so concurrent pool tasks count independently;
      reset and read it from within the same task. *)

  val reset_encode_count : unit -> unit
end
