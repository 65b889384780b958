type request =
  | Op_txn of Gg_workload.Op.txn
  | Sql_txn of {
      label : string;
      stmts : (string * Gg_storage.Value.t array) list;
    }

type abort_reason =
  | Constraint_violation of string
  | Read_validation
  | Write_conflict
  | Ssi_conflict
  | Row_deleted
  | Node_failure
  | Cross_abort

type outcome =
  | Committed of { latency_us : int; results : Gg_sql.Executor.result list }
  | Aborted of { latency_us : int; reason : abort_reason }

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
  mutable lsn : int;
  mutable cen : int;
  mutable csn : Gg_storage.Csn.t;
  mutable read_set : Gg_sql.Executor.read_record list;
  mutable writeset : Gg_crdt.Writeset.t option;
  mutable sql_results : Gg_sql.Executor.result list;
  mutable commit_point : int;
  mutable finished : bool;
  mutable span : int;  (* causal span id (Obs.new_span); 0 when untraced *)
  mutable merge_span : int;  (* span of the merge that decided this txn *)
}

let create ~id ~node ~request ~submit_time ~callback =
  {
    id;
    node;
    request;
    submit_time;
    callback;
    phases = { parse_us = 0; exec_us = 0; wait_us = 0; merge_us = 0; log_us = 0 };
    sen = 0;
    lsn = 0;
    cen = 0;
    csn = Gg_storage.Csn.zero;
    read_set = [];
    writeset = None;
    sql_results = [];
    commit_point = 0;
    finished = false;
    span = 0;
    merge_span = 0;
  }

let label t =
  match t.request with
  | Op_txn o -> o.Gg_workload.Op.label
  | Sql_txn { label; _ } -> label

let abort_reason_to_string = function
  | Constraint_violation m -> "constraint: " ^ m
  | Read_validation -> "read-validation"
  | Write_conflict -> "write-conflict"
  | Ssi_conflict -> "ssi-rw-antidependency"
  | Row_deleted -> "row-deleted"
  | Node_failure -> "node-failure"
  | Cross_abort -> "cross-partition-validation"

let outcome_latency = function
  | Committed { latency_us; _ } | Aborted { latency_us; _ } -> latency_us

let is_committed = function Committed _ -> true | Aborted _ -> false

let emit_span obs (txn : t) outcome =
  let module Obs = Gg_obs.Obs in
  let p = txn.phases and node = txn.node in
  if txn.span = 0 then txn.span <- Obs.new_span obs ~node;
  let span = txn.span in
  (* cen defaults to 0; only transactions that reached the commit point
     with a write set actually belong to an epoch. *)
  let epoch = if txn.commit_point > 0 then txn.cen else -1 in
  let start = ref txn.submit_time in
  let phase name dur =
    Obs.emit obs ~at:!start ~node ~epoch ~span ~dur ~cat:"txn" name;
    start := !start + max 0 dur
  in
  phase "phase.parse" p.parse_us;
  phase "phase.exec" p.exec_us;
  phase "phase.wait" p.wait_us;
  phase "phase.merge" p.merge_us;
  phase "phase.log" p.log_us;
  if txn.commit_point > 0 then
    Obs.emit obs ~at:txn.commit_point ~node ~epoch ~span ~cat:"txn"
      "commit.point";
  let parent = if txn.merge_span > 0 then txn.merge_span else -1 in
  match outcome with
  | Committed { latency_us; _ } ->
    Obs.emit obs ~node ~epoch ~span ~parent ~dur:latency_us ~cat:"txn" "commit"
  | Aborted { latency_us; reason } ->
    Obs.emit obs ~node ~epoch ~span ~parent ~dur:latency_us ~cat:"txn" "abort"
      ~detail:(abort_reason_to_string reason)
