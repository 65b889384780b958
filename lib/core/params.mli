(** GeoGauss cluster configuration. *)

(** Isolation levels supported by the multi-master OCC (§4.3). [SSI] is
    the serializable-snapshot extension the paper sketches but does not
    ship (it requires exchanging each transaction's read keys, §4.3):
    write sets carry read-key sets and the per-epoch merge aborts pivot
    transactions (an incoming and an outgoing rw-antidependency within
    the epoch). *)
type isolation = RC | RR | SI | SSI

(** Execution variants benchmarked in the paper:
    - [Optimistic]: GeoGauss proper — asynchronous execution,
      synchronous per-epoch validation.
    - [Sync_exec]: GeoG-S — epoch i's transactions wait for snapshot
      (i-1) before executing.
    - [Async_merge]: GeoG-A — no epochs; CRDT merge on arrival, eventual
      consistency, no abort/commit semantics. *)
type variant = Optimistic | Sync_exec | Async_merge

(** Fault-tolerance options of §5.2, cheapest to most expensive. *)
type ft_mode =
  | Ft_none
  | Ft_local_backup  (** ~0.5 cross-region RTT before client notify *)
  | Ft_remote_backup  (** ~1 RTT *)
  | Ft_raft  (** write sets applied remotely only after majority ack, ~1.5 RTT *)

(** Conflict-resolution granularity of the epoch merge (DESIGN.md §13).
    [Row] is the paper's last-write-wins over whole row images: one
    committed writer per row per epoch. [Column] resolves each written
    column independently (per-field LWW in the style of crdt-sqlite):
    concurrent updates of one live row all commit, each cell keeping the
    value of its winning writer; inserts and deletes still resolve at
    row granularity. *)
type merge_level = Row | Column

(** CPU / phase cost model, calibrated against the paper's Table 2
    per-phase breakdown. *)
type cost = {
  exec_op_us : int;  (** execution cost per key-level operation *)
  sql_stmt_us : int;  (** execution cost per SQL statement *)
  merge_record_us : int;  (** merge cost per write-set record *)
  merge_threads : int;
      (** merge-thread parallelism of the {e modeled} node: divides the
          simulated per-record merge cost. The host merge itself runs on
          one domain ([Epoch_merge]) *)
  merge_base_us : int;  (** fixed per-epoch merge overhead *)
  notify_us : int;
      (** per blocked transaction thread, per epoch: the cost of the
          thread-blocking/notification machinery of §5.1 — the reason
          very short epochs hurt (Fig 8) *)
  log_fsync_us : int;  (** group-commit log flush *)
}

type t = {
  epoch_us : int;  (** epoch length, default 10 ms *)
  isolation : isolation;  (** default RC (the paper's default) *)
  variant : variant;
  ft : ft_mode;
  pipeline : bool;  (** ship write sets in mini-batches (§5.1) *)
  seed : int;
  cost : cost;
  client_retry_us : int;  (** client resubmission timeout after node failure *)
  merge_par_threshold : int;
      (** fixed at 4096 records. No engine path reads it; only
          bench/e2e's [epochs_over_par_threshold] counter does, counting
          the epochs at least this large *)
  merge_level : merge_level;
      (** conflict-resolution granularity, default [Row] (byte-identical
          to the pre-column engine: no column masks are captured and the
          wire stream never carries the masked-update record form) *)
  fastpath : bool;
      (** the eocc clock-assisted fast path (DESIGN.md §14): timestamp
          transactions with bounded-skew local clocks, speculatively
          start the epoch merge once every peer's predicted-arrival
          watermark passes the boundary, and confirm (or fall back) when
          the synchronous all-arrived signal lands. Only latency is
          speculative — commits are externalized strictly after
          confirmation. Default [false]: the classic engine, whose
          clock has bound 0 and so reads sim time *)
  clock_skew_us : int;
      (** bound on per-node clock error when [fastpath] is on (offset +
          drift + injected steps are clamped to ±this), default 5 ms.
          [0] = perfectly synchronized clocks *)
}

val default_cost : cost
val default : t

val with_epoch_ms : t -> int -> t
val with_isolation : t -> isolation -> t
val with_variant : t -> variant -> t
val with_ft : t -> ft_mode -> t

val with_fastpath : t -> bool -> t
(** Enabling the fast path coerces [variant] to [Optimistic] —
    speculative sealing only refines the classic epoch merge pipeline.
    Disabling leaves the variant alone. *)

val with_clock_skew_us : t -> int -> t
(** Clamped to >= 0. *)

val isolation_to_string : isolation -> string
val variant_to_string : variant -> string
val ft_to_string : ft_mode -> string

val merge_level_to_string : merge_level -> string
(** ["row"] or ["column"]. *)

val merge_level_of_string : string -> (merge_level, string) result
(** Inverse of {!merge_level_to_string}; [Error] carries a usage hint. *)

val effective_merge_level : t -> merge_level
(** The level the engine actually runs: [Column] only under the
    epoch-based variants. GeoG-A applies whole rows on gossip arrival,
    so it coerces to [Row]. *)
