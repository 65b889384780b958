(** The cross-group commit protocol of partial replication (DESIGN.md §12).

    Built on {!Partitioning}'s map. A node holds one [t] only when
    partitioning is enabled; under full replication none is installed and
    no function here runs. The module owns the node's unresolved
    cross-group transactions and the foreign groups' votes on them, and
    hands decisions back to its caller instead of acting on them: the
    caller sends, logs and answers clients. *)

type t

val create :
  Partitioning.t -> topology:Gg_sim.Topology.t -> backup:Backup.t ->
  db:Gg_storage.Db.t -> node:int -> t option
(** [None] when {!Partitioning.enabled} is false. *)

val group : t -> int
(** This node's replica group. *)

val reset : t -> unit
(** Drop all volatile state (crash, or a state-transfer install). *)

(** {1 Dissemination} *)

val keeps : t -> Gg_crdt.Writeset.t -> bool
(** Does the write set touch this node's group? *)

val targets : t -> Gg_crdt.Writeset.t -> int list
(** Nodes interested in a write set: the members of every touched group,
    ascending, without this node. *)

val eof_groups :
  t -> Gg_crdt.Writeset.t list ->
  (int * Gg_crdt.Writeset.t list * int list) list
(** Per group, in group order: the group, the sealed write sets touching
    it, and its members other than this node. *)

(** {1 Merge} *)

val ready : t -> e:int -> members:int list -> bool
(** Every foreign verdict needed to resolve at merge [e] is known.
    [members] is the view of epoch [e]. *)

val merge_records : t -> e:int -> Gg_crdt.Writeset.t list -> int * int
(** The simulated merge work of epoch [e]: the records of [txns] this
    group owns, and the deferred records resolving at this merge. *)

type decision = {
  cen : int;  (** the transaction's merge epoch *)
  csn : int;  (** packed csn *)
  n_groups : int;  (** groups the transaction touches *)
  txn : Txn.t option;  (** the client transaction, on its origin node *)
  abort : Txn.abort_reason option;  (** [None]: committed everywhere *)
}

val resolve : t -> e:int -> members:int list -> decision list
(** Settle the cross-group transactions whose vote window ends at merge
    [e], in packed-csn order: apply the globally committed ones' deferred
    write-backs and return every decision. A foreign group with no member
    in [members] (the view of [e]) is read from its durable backup
    record; a dead group with no record counts as a rejection. *)

type epoch
(** One merge's deferred transactions. *)

val fragments : t -> Gg_crdt.Writeset.t list -> epoch * Gg_crdt.Writeset.t list
(** Restrict each write set to this group and defer the write-back of
    every cross-group one (and of a write set touching only foreign
    groups). *)

val deferred : epoch -> Gg_crdt.Writeset.t -> bool

val hold : epoch -> Txn.t -> bool
(** [true] when the local transaction was deferred: it is answered at
    resolution, and the epoch now owes it to the client. *)

val votes :
  t -> epoch -> Epoch_merge.t -> cen:int -> Gg_crdt.Writeset.t list ->
  (int * bool) list * int list
(** After merging epoch [cen] (its unfragmented write sets): record
    the deferred verdicts for resolution, and durably record this
    group's csn-sorted [(packed csn, validated)] vote list. Returns it
    with the nodes to send it to — none unless this node is its group's
    speaker. *)

val on_vote : t -> lsn:int -> cen:int -> group:int -> (int * bool) list -> bool
(** Store a foreign group's votes; [false] (nothing stored) when epoch
    [cen] has already resolved at snapshot [lsn]. *)

val refetch : t -> e:int -> members:int list -> (int * int * int) list
(** Stall repair: [(cen, group, delay_us)] for every group whose vote on
    a transaction resolving at merge [e] is still missing but is in the
    backup. {!fetched} stores it after the round trip. *)

val fetched : t -> cen:int -> group:int -> unit
(** Store a group's backup vote list for epoch [cen]. *)
