(** Raft consensus over the discrete-event simulator.

    Used by GeoGauss the way the paper uses it (§5.2): as a light
    membership service that reaches consensus on the set of live nodes
    (invoked only when liveness changes), and as the heavy-weight
    write-set replication option benchmarked in Fig 12.

    The implementation covers leader election with randomized timeouts,
    log replication with the log-matching property, commitment by
    majority match, and follower catch-up. Logs survive crashes (they
    model stable storage); volatile role state resets on recovery. *)

type role = Follower | Candidate | Leader

type entry = { term : int; data : string }

type t

val create :
  Gg_sim.Net.t ->
  rng:Gg_util.Rng.t ->
  apply:(node:int -> index:int -> string -> unit) ->
  t
(** One Raft peer per network node. [apply] fires on every node as
    entries commit, in log order, exactly once per (node, index).
    Leaders heartbeat every 50 ms; the base election timeout is 300 ms,
    randomized up to 2x. *)

val start : t -> unit
(** Arm timers. Call once before running the simulation. *)

val n_nodes : t -> int

val propose : t -> node:int -> string -> bool
(** [propose t ~node data] appends to the leader's log if [node]
    currently believes itself leader; [false] otherwise (caller retries
    against {!current_leader}). *)

val propose_anywhere : t -> string -> bool
(** Propose via the current leader, if any. *)

val current_leader : t -> int option
(** The live leader with the highest term, if one exists. *)

val role : t -> int -> role
val term : t -> int -> int
val log_length : t -> int -> int
val commit_index : t -> int -> int

val entry_at : t -> node:int -> index:int -> entry option
(** 1-based index, entries up to [log_length]. *)
