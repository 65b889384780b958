(** A full GeoGauss deployment: N replica nodes over a simulated
    geo-distributed network, plus Raft-based membership (§5.2), write-set
    backup servers, failure detection and recovery orchestration. *)

type t

val create :
  ?params:Params.t ->
  ?jitter_frac:float ->
  ?loss:float ->
  ?dup:float ->
  ?reorder:float ->
  topology:Gg_sim.Topology.t ->
  load:(Gg_storage.Db.t -> unit) ->
  unit ->
  t
(** [load] populates a database; every replica starts from that image
    (the initial consistent snapshot). It runs once: replica 0 keeps the
    database it filled, and the others get {!Gg_storage.Db.copy}s. *)

val sim : t -> Gg_sim.Sim.t

val obs : t -> Gg_obs.Obs.t
(** The observability registry/tracer shared by every component of this
    deployment (same as [Gg_sim.Sim.obs (sim t)]). *)

val net : t -> Gg_sim.Net.t
val params : t -> Params.t

val clock : t -> Gg_sim.Clock.t
(** The deployment's bounded-skew clock model (DESIGN.md §14). Created
    with [bound_us = 0] (perfect clocks) unless the fast path is on;
    fault schedules inject skew bursts through it. *)

val n_nodes : t -> int
val node : t -> int -> Node.t
val metrics : t -> int -> Metrics.t
val backup : t -> Backup.t

val submit : t -> node:int -> Txn.request -> (Txn.outcome -> unit) -> unit

(** {1 Observer hooks}

    Registration points for protocol observers (the chaos checker's
    invariant oracles). Hooks run synchronously inside the simulation and
    must not mutate cluster state. *)

val on_snapshot : t -> (node:int -> lsn:int -> unit) -> unit
(** [f ~node ~lsn] fires every time [node] finishes merging epoch [lsn],
    at the instant its database equals consistent snapshot [lsn] (and
    before any state-transfer bookkeeping). Hooks run in registration
    order. *)

val on_commit : t -> (Txn.t -> unit) -> unit
(** Commit-log hook: [f txn] fires whenever a transaction's commit is
    reported to its client; [txn] carries the commit epoch / csn / write
    set. Hooks run in registration order. *)

val route : t -> preferred:int -> int
(** The node a client in [preferred]'s region should talk to: the
    preferred node when it is alive and in the view, otherwise the
    nearest live member. *)

val members : t -> int list
(** Current membership view. *)

val run_for_ms : t -> int -> unit
val run_until : t -> int -> unit

val crash : t -> int -> unit
(** Take a node down (network + service). *)

val recover : t -> int -> unit
(** Bring a crashed node back: re-join via Raft membership and a state
    snapshot from the nearest live donor. *)

val total_committed : t -> int
val total_aborted : t -> int

val lsns : t -> int list
val digests : t -> string list
(** Per-replica state digests; equal on replicas holding the same
    snapshot. *)

val quiesce : t -> unit
(** Let in-flight epochs settle: advances the simulation until all live
    members reach a common snapshot that covers every sealed epoch (give
    clients a chance to stop submitting first). *)
