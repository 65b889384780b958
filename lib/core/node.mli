(** A GeoGauss master node: the per-replica state machine implementing
    the paper's epoch-based multi-master OCC.

    - {b Algorithm 1} (local transaction lifecycle): {!submit} assigns
      the epoch and snapshot, {!Execution} executes and validates the
      reads, the commit-point handler assigns cen/csn and disseminates
      the write set, and the per-epoch notification step answers.
      GeoG-A answers at the commit point and gossips instead; it runs
      no epochs, so {!Cluster} never calls {!start} for it.
    - {b Algorithm 2} (DeltaCRDTMerge) runs inside the per-epoch merge,
      via {!Epoch_merge.run}.
    - {b Algorithm 3} (receive/merge threads) maps onto the message
      handler plus [try_advance], which produces consistent snapshots
      one by one.

    Timing is simulated: CPU work goes through a {!Gg_sim.Cpu} pool,
    write sets travel over {!Gg_sim.Net}, and per-phase durations follow
    {!Params.cost}. State changes (reads, merges, write-backs) happen at
    the simulated instants where the real system would perform them. *)

(** Every message carries the sender's causal span id ([0] when tracing
    is off) so receive-side trace events can name their cross-node
    parent; modeled byte counts include a fixed 8-byte trace-context
    header, matching the Batch wire form. *)
type msg =
  | Batch_msg of Gg_crdt.Writeset.Batch.t
  | Batch_wire of bytes
      (** a batch frame as raw wire bytes: what a corrupting network
          actually carries. A frame that fails to decode is dropped like
          a lost message (the stall-repair path recovers it). *)
  | Ft_ack of { cen : int; from : int; span : int }
      (** Raft-FT: receiver acknowledges an epoch batch *)
  | Ft_commit of { cen : int; origin : int; span : int }
      (** Raft-FT: origin saw a majority; batch may be merged *)

(** Shared environment; the [mutable] hooks are wired by {!Cluster}
    after all nodes exist. *)
type env = {
  sim : Gg_sim.Sim.t;
  net : Gg_sim.Net.t;
  params : Params.t;
  backup : Backup.t;
  clock : Gg_sim.Clock.t;
      (** bounded-skew local clocks + watermark/delay estimators. Bound 0
          (every read is sim time) unless {!Params.t.fastpath} is on *)
  mutable members_at : int -> int list;
      (** expected replica set for a given epoch *)
  mutable deliver : dst:int -> msg -> unit;
      (** local dispatch, invoked at network delivery time *)
  mutable on_snapshot : node:int -> lsn:int -> unit;
      (** cluster hook fired after each snapshot generation *)
  mutable on_commit : Txn.t -> unit;
      (** commit-log hook: fired for every transaction whose commit is
          reported to its client, at the reporting instant. The {!Txn.t}
          carries the commit epoch, csn and write set — the chaos
          checker's durability and isolation oracles consume these. *)
}

type t

val create : env -> id:int -> db:Gg_storage.Db.t -> t
val start : t -> unit
(** Arm the epoch-boundary and stall-repair timers. *)

val submit : t -> Txn.request -> (Txn.outcome -> unit) -> unit
(** Accept a client transaction. The callback fires exactly once. *)

val receive : t -> msg -> unit

(** {1 Accessors} *)

val id : t -> int
val db : t -> Gg_storage.Db.t
val lsn : t -> int
(** Latest globally consistent snapshot number (-1 before the first). *)

val sealed_epoch : t -> int
val metrics : t -> Metrics.t
val active : t -> bool
val pending_waiting : t -> int
(** Local transactions blocked on future snapshots (diagnostics). *)

val held_epochs : t -> int list
(** Epochs holding a per-epoch record, ascending (diagnostics). The
    merge drops an epoch's record, so all of them lie past {!lsn}. *)

val last_txn_epoch : t -> int
(** Highest epoch that ever held a committed local transaction (-1 if
    none) — the epoch every replica must merge before a full-database
    digest comparison is meaningful ({!Cluster.quiesce}). *)

(** {1 Failure / recovery hooks (driven by Cluster)} *)

val set_active : t -> bool -> unit
(** [false]: stop sealing epochs and fail new submissions (crash).
    In-flight transactions are dropped; clients must time out. *)

val last_eof_from : t -> peer:int -> int
(** Sim time of the last EOF received from a peer (failure detection). *)

val touch_eof : t -> peer:int -> unit
(** Reset a peer's failure-detection clock (e.g. after it re-joins). *)

val missing_sealed_epochs : t -> peer:int -> upto:int -> int list
(** Epochs in (lsn, upto] with no EOF from [peer] — to be recovered from
    the peer's backup server. *)

val checkpoint : t -> int * bytes
(** Donor side of recovery: the current snapshot number and the state
    at that snapshot, serialized by {!Gg_storage.Checkpoint}. *)

val install_state : t -> rejoin:int -> lsn:int -> db:Gg_storage.Db.t -> unit
(** Recovering side: adopt a transferred snapshot and resume, sealing
    (empty) every epoch from [rejoin] — the epoch peers start expecting
    this node's EOFs again — up to the present. Duplicate or stale
    snapshots (lower [lsn], or the node already active) are ignored. *)

val try_advance : t -> unit
(** Re-evaluate merge prerequisites (call after view changes). *)
