(** Write-set backup store (paper §5.2).

    Each replica pushes a copy of every sealed epoch batch to its
    region's backup server. On a node failure, survivors consult the
    failed node's backup to (a) learn the last epoch it sealed and (b)
    fetch any batches they are missing, so every replica merges the same
    set of updates before the failed node is dropped from the view. *)

type t

val create : n:int -> t

val put : t -> Gg_crdt.Writeset.Batch.t -> unit
(** Store a node's sealed batch (must have [eof = true]). *)

val last_sealed : t -> node:int -> int
(** Highest epoch sealed by [node]; -1 if none. *)

val get : t -> node:int -> cen:int -> Gg_crdt.Writeset.Batch.t option

val count : t -> int
(** Total batches stored. *)
