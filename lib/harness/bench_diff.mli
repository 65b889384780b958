(** Perf-regression accounting between two bench reports.

    Compares two [BENCH_*.json] documents of the same suite
    ([parallel], [scale], [skew] or [fastpath]) metric by metric. All
    compared metrics are higher-is-better throughputs, except: the scale
    suite's [wan_kb_per_txn] and the skew suite's
    [abort_rate] / [wan_kb_per_txn], which are lower-is-better and
    judged on the inverted delta; and the fastpath suite's [p50_ms] /
    [p95_ms] / [mispredict_rate], likewise lower-is-better. Wall-clock
    numbers are noisy, so a drop only counts as a regression beyond
    [threshold] (fraction of the old value); half the threshold flags a
    warning. Parallel-scaling speedups are never gated — their
    regressions are downgraded to warnings. *)

type verdict = Same | Improve | Warn | Regress

type row = {
  key : string;  (** scenario label / [jobs=N] / [workload/jobs=N] *)
  metric : string;  (** [missing] when the new report lacks the key *)
  old_v : float;
  new_v : float;
  delta_frac : float;  (** (new - old) / old; positive = better *)
  verdict : verdict;
}

val verdict_to_string : verdict -> string

val diff :
  ?threshold:float ->
  old_json:string ->
  new_json:string ->
  unit ->
  (row list, string) result
(** Default [threshold] is [0.25]. [Error] on unparsable input, a suite
    mismatch, or an unknown suite. *)

val diff_files :
  ?threshold:float ->
  old_path:string ->
  new_path:string ->
  unit ->
  (row list, string) result

val has_regression : row list -> bool
val has_warning : row list -> bool

val render : row list -> string
(** Deterministic comparison table (old-report row order). *)
