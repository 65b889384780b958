(** The state a node holds for every epoch it has not merged yet: its
    local write sets, the transactions waiting on the merge, and each
    peer's batch as far as it has arrived. Only epochs past the node's
    snapshot get a record, and the merge removes it.

    Each write set is deduplicated once, by csn, as it arrives
    ({!add}): the network may duplicate a batch, and the stall repair
    may re-fetch one from the backup after part of it arrived. A batch
    from node [p] carries only write sets whose csn names [p], so
    {!collect} concatenates without a second check. *)

type record = {
  mutable pending : Gg_crdt.Writeset.t list;  (** local write sets, newest first *)
  mutable sealed : Gg_crdt.Writeset.t list;  (** [pending] in commit order, at the seal *)
  mutable waiting : Txn.t list;  (** local transactions awaiting the merge *)
  mutable notify_at : int;  (** earliest instant their clients may hear back *)
}
(** The node's own part of an epoch's record. The peers' batches are
    held beside it and reached only through the functions below. *)

type t

val create : peers:int -> awaits_commit:bool -> t
(** A store for a cluster of [peers] nodes. Under [awaits_commit]
    (Raft-FT) a peer batch is complete only after its origin's commit. *)

val get : t -> int -> record
(** Epoch [cen]'s record, created on first use. Every function below
    that names one epoch creates its record the same way. *)

val add : t -> cen:int -> peer:int -> Gg_crdt.Writeset.t list -> unit
(** Write sets of [peer]'s epoch-[cen] batch; one already held (same
    csn) is dropped. *)

val eof : t -> cen:int -> peer:int -> count:int -> unit
(** [peer]'s EOF for [cen] arrived, announcing [count] write sets. *)

val commit : t -> cen:int -> peer:int -> unit
(** [peer]'s batch for [cen] may merge: its origin committed it, or it
    came from the backup. *)

val received : t -> cen:int -> peer:int -> int
(** Distinct write sets of [peer]'s epoch-[cen] batch held so far. *)

val complete : t -> cen:int -> peer:int -> bool
(** The EOF arrived, so did every write set it announced, and the batch
    may merge. *)

val incomplete : t -> cen:int -> self:int -> int list -> int list
(** The members other than [self] whose batch is not {!complete}. *)

val collect : t -> cen:int -> self:int -> int list -> Gg_crdt.Writeset.t list
(** Epoch [cen]'s write sets in merge order: the local sealed ones, then
    each member's (other than [self]) in arrival order. No two share a
    csn. *)

val remove : t -> int -> unit
(** Drop epoch [cen]'s record (the merge did it). *)

val drop_through : t -> lsn:int -> unit
(** Drop the records of epochs at or below [lsn]. *)

val reset : t -> unit
(** Drop every record (a crash). *)

val waiting : t -> int
(** Local transactions waiting, over every epoch. *)

val held : t -> int list
(** Epochs holding a record, ascending. *)

val missing_eof : t -> peer:int -> lsn:int -> upto:int -> int list
(** Epochs in (lsn, upto] holding no EOF from [peer], ascending. *)
