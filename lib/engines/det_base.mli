(** Shared machinery for deterministic multi-master baselines (Calvin,
    Aria, CalvinFS, Q-Store).

    These systems replicate transaction {e inputs}: every node runs a
    sequencer that batches its local transactions per interval and
    broadcasts the batch; when a node holds round [r]'s batches from all
    peers (and round [r-1] is done — deterministic rounds execute in
    order), it executes the identical transaction set in the agreed
    order. The strategy record captures how each system schedules a
    round and which transactions abort. *)

type strategy = {
  strat_name : string;
  per_txn_sched_us : int;
      (** deterministic scheduling overhead per transaction (ordered
          locks for Calvin; near-zero for queue-oriented Q-Store) *)
  preprocess_us : int;
      (** per-transaction pre-execution analysis (Aria's dependency
          reservation pass) *)
  lock_critical_path : bool;
      (** Calvin-style ordered locks: conflicting transactions serialize,
          so the round lasts at least the longest per-key chain *)
  reservation_aborts : bool;
      (** Aria-style reservations: WAW/RAW conflicts with earlier
          transactions in the round abort *)
  extra_round_us : int;
      (** fixed extra per-round cost (e.g. CalvinFS quorum metadata
          round) *)
  ft_raft : bool;
      (** replicate input batches through Raft before execution
          (~1 extra RTT before a round is runnable) *)
}

type t

val create : Gg_sim.Net.t -> Engine.config -> strategy -> t
val submit : t -> node:int -> Gg_workload.Op.txn -> (Engine.outcome -> unit) -> unit
