(** Social-graph fanout workload (DESIGN.md §13).

    Zipf-popular authors post; each post is a read-modify-write
    multicast that bumps the author's [post_count] and the [feed_count]
    of a Pareto-tailed number of follower rows. The follow graph is an
    implicit deterministic hash of (author, slot), so hot authors hit
    the {e same} follower rows from every region — classic power-law
    write skew. Reads model timeline checks.

    All contended writes are single-column {!Op.Add}s, so row-level
    merge aborts colliding posts while column-level merge commits them
    (per-cell LWW still drops one bump when two posts race on the same
    cell — the counter-semantics caveat DESIGN.md §13 spells out). *)

type profile = {
  name : string;
  users : int;
  theta : float;
  fanout_alpha : float;
  max_fanout : int;
  read_pct : float;
  reads_per_txn : int;
  parse_cost_us : int;
}

val table_name : string
val base : profile
val with_users : profile -> int -> profile

val feed_col : int
val post_col : int

val load : profile -> Gg_storage.Db.t -> unit

type t

val create : profile -> seed:int -> t
val profile : t -> profile

val next_txn : t -> Op.txn
(** Deterministic given the creation seed and call sequence. *)
