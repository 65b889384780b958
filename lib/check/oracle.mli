(** Protocol invariant oracles.

    One oracle instance observes a running {!Geogauss.Cluster} through
    its snapshot and commit hooks and checks, per epoch:

    + {b Convergence} — replicas generating the same global snapshot
      number hold byte-identical states ({!Gg_storage.Db.digest};
      Theorem 1 / §4.2 determinism of the epoch merge).
    + {b Monotonicity} — each node's snapshot numbers strictly increase.
    + {b Durability} — every commit reported to a client survives in the
      final state of the most advanced live replica, and its write set
      is recoverable from the origin's backup server (§5.2).
    + {b ACI merge laws} — joining an epoch's full batch set permuted
      and partially duplicated yields the same per-row winners
      (Lemma 2: the merge is associative, commutative, idempotent). The
      winners come from the reference model's joins
      ({!Merge_model.join_headers}), not from a replay of the kernel's
      header merge.
    + {b Isolation} — no two committed transactions of one epoch wrote
      the same row (the per-epoch OCC validation admits exactly one
      winner per row, §4.3).

    GeoG-A ([Async_merge]) runs skip the epoch-based checks; the checker
    applies an eventual-convergence check instead.

    Under column-level merge ({!Params.effective_merge_level} =
    [Column], DESIGN.md §13) conflicts resolve per cell, so the oracles
    rescope: isolation admits any number of committed {e updaters} per
    row (while two inserts, two deletes, or any mixed pair stay
    violations); durability treats a committed update as lost only if
    its row's header never reached the update's epoch (the header csn
    belongs to the row-claim winner, not every cell winner); and the ACI
    check additionally compares the per-(row, column) cell winners
    ({!Merge_model.join_cells}) under permutation + duplication, both
    ways. *)

type invariant = Convergence | Monotonicity | Durability | Aci | Isolation

type violation = {
  invariant : invariant;
  epoch : int;
  node : int;  (** -1 when not attributable to one replica *)
  detail : string;
}

type t

val create : Geogauss.Cluster.t -> t
(** Register the oracle's hooks on the cluster. Create it before the
    run starts; checks fire synchronously as the simulation advances. *)

val finalize : t -> min_lsn:int -> violation option
(** End-of-run checks (call after clients stopped and the cluster
    quiesced): liveness floor [min_lsn], pairwise final digests, and the
    durability sweep over the recorded commit log. Returns the first
    violation of the whole run, if any. *)

val violations : t -> violation list
(** All recorded violations, oldest first (recording caps at 32). *)

val first : t -> violation option
val n_commits : t -> int

val violation_to_string : violation -> string
