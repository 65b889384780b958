(** The epoch-aware delta-CRDT merge rule — paper Algorithm 2.

    [merge_header] is the pure heart of DeltaCRDTMerge: given a row
    header (the current pre-write winner for that row) and a candidate
    transaction's metadata, it decides who wins and stamps the header on
    a win. The rule, restricted to updates with the same commit epoch
    [cen], is a join in the lattice induced by {!Meta.wins_over}:

    - a row not yet pre-written in this epoch is always taken
      ([row.cen < T.cen]);
    - otherwise the {e shorter} transaction wins ([row.sen < T.sen]);
    - on equal [sen], the {e first} write wins (smaller [csn]).

    One deliberate deviation from the paper's pseudocode: re-merging the
    exact same update (equal csn — csns are globally unique, so this is
    the same transaction retransmitted) is reported as {!Already} rather
    than falling into the abort branch. Without this, a duplicated
    delivery would abort its own transaction, violating the idempotence
    the paper requires of the merge. *)

type outcome =
  | Win  (** header stamped with the candidate's meta *)
  | Lose  (** candidate loses the write-write conflict *)
  | Already  (** idempotent re-merge of the same update; header untouched *)

val merge_header : Gg_storage.Row_header.t -> meta:Meta.t -> outcome
(** Precondition (guaranteed by the epoch synchronisation points of
    Algorithms 1 and 3): [row.cen <= meta.cen]. Raises
    [Invalid_argument] if violated — "row.cen > T.cen will never
    happen". *)
