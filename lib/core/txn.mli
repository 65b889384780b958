(** Transaction requests, outcomes and runtime bookkeeping. *)

type request =
  | Op_txn of Gg_workload.Op.txn
      (** key-level stored-procedure style transaction (benchmarks) *)
  | Sql_txn of {
      label : string;
      stmts : (string * Gg_storage.Value.t array) list;
          (** statements with positional parameters, executed in order *)
    }

type abort_reason =
  | Constraint_violation of string
  | Read_validation  (** RR/SI read-set check failed (Algorithm 1 l.9-18) *)
  | Write_conflict  (** lost the write-write merge (Algorithm 1 l.26-29) *)
  | Ssi_conflict
      (** SSI extension: pivot of consecutive rw-antidependencies *)
  | Row_deleted  (** wrote a row deleted by an earlier epoch *)
  | Node_failure  (** host crashed before responding *)

type outcome =
  | Committed of {
      latency_us : int;
      results : Gg_sql.Executor.result list;
          (** SQL result sets; empty for op-level transactions *)
    }
  | Aborted of { latency_us : int; reason : abort_reason }

(** Per-phase latency breakdown of a transaction (paper Table 2). All in
    µs; [wait] covers both waiting for the previous snapshot and for the
    epoch's remote updates. *)
type phases = {
  mutable parse_us : int;
  mutable exec_us : int;
  mutable wait_us : int;
  mutable merge_us : int;
  mutable log_us : int;
}

type t = {
  id : int;
  node : int;
  request : request;
  submit_time : int;
  callback : outcome -> unit;
  phases : phases;
  mutable sen : int;
  mutable lsn : int;  (** snapshot the transaction read from *)
  mutable cen : int;
  mutable csn : Gg_storage.Csn.t;
  mutable read_set : Gg_sql.Executor.read_record list;
      (** rows read, for RR/SI read validation and SSI's shipped read
          keys; built only at RR, SI and SSI, [[]] at RC *)
  mutable writeset : Gg_crdt.Writeset.t option;
  mutable sql_results : Gg_sql.Executor.result list;
  mutable commit_point : int;  (** time the send-buffer append happened *)
  mutable finished : bool;
  mutable span : int;
      (** causal span id ({!Gg_obs.Obs.new_span}); [0] while tracing is
          off. Allocated at submit, carried by the transaction's
          mini-batches, and stamped on its trace events. *)
  mutable merge_span : int;
      (** span of the epoch merge that decided this transaction; [0]
          until then. Becomes the parent of the commit/abort event,
          linking the transaction into the cross-node causal DAG. *)
}

val create :
  id:int -> node:int -> request:request -> submit_time:int ->
  callback:(outcome -> unit) -> t

val label : t -> string
val abort_reason_to_string : abort_reason -> string
val outcome_latency : outcome -> int
val is_committed : outcome -> bool

val emit_span : Gg_obs.Obs.t -> t -> outcome -> unit
(** Trace a finished transaction as its span: five Algorithm-1 phase
    events back-dated cumulatively from the submit time, a commit-point
    marker if it entered an epoch, then the commit/abort terminator,
    whose parent is the deciding merge's span ({!t.merge_span}). *)
