(** The §5.2 fault-tolerance stage. Local and remote backup delay the
    client answer by the round trip to the backup server; Raft-FT makes
    receivers ack each EOF to its origin and holds a peer batch out of
    the merge until its origin announces a majority. The stage returns
    decisions; the node sends and traces, as with {!Fastpath}. *)

type t

val create : Params.t -> topology:Gg_sim.Topology.t -> node:int -> t
val notify_delay : t -> int
(** µs after an epoch's seal before its clients may hear back. *)

val awaits_commit : t -> bool
(** A peer batch may merge only after its origin's commit. *)

val acks_eof : t -> bool
(** Receivers ack each EOF to the batch's origin. *)

val sealed : t -> cen:int -> members:int -> unit
(** The node sealed its epoch-[cen] batch, [members] replicas in [cen]'s
    view: open its ack tally (Raft-FT, at least two members). Tallies
    open only here, so a late ack, or one for an epoch sealed before a
    crash, finds no tally and cannot announce again. *)

val ack : t -> cen:int -> from:int -> members:int -> bool
(** Peer [from] acked the node's epoch-[cen] batch, [members] replicas
    in [cen]'s view. [true] (announce) comes once: when the node and
    the distinct ackers first form a majority, which closes the tally.
    A tally outlives the node's own merge of [cen], since peers may
    still wait; one whose majority never forms stays until {!reset}. *)

val reset : t -> unit
(** Crash: forget every tally. *)
