(** Offline analysis of exported JSONL traces.

    Loads the [meta] / [event] / [snapshot] records the harness writes
    (see DESIGN.md §7) and renders the epoch timeline, per-phase latency
    breakdown, slowest-epoch drill-down and cross-node epoch skew that
    the [geogauss_cli trace] subcommand prints. *)

type t = {
  meta : Jsonl.t;  (** the ["type":"meta"] record, [Obj []] when absent *)
  events : Obs.Trace.event list;  (** file order *)
  snapshots : (int * (string * int) list) list;
      (** periodic counter snapshots: (sim time µs, counter values) *)
}

val of_lines : string list -> (t, string) result
val load_file : string -> (t, string) result

(** {1 Analyses} *)

type phase_row = {
  pr_node : int;
  pr_txns : int;  (** committed transactions observed for this node *)
  pr_parse_ms : float;
  pr_exec_ms : float;
  pr_wait_ms : float;
  pr_merge_ms : float;
  pr_log_ms : float;
}

val phase_breakdown : t -> phase_row list
(** Mean per-phase latency (Algorithm 1 phases) per node, from the
    [txn/phase.*] events; sorted by node id. *)

type epoch_row = {
  er_epoch : int;
  er_seal_at : int;  (** earliest seal across nodes, [-1] if unobserved *)
  er_merge_nodes : int;  (** nodes whose merge.commit was observed *)
  er_merge_max_us : int;  (** slowest merge duration *)
  er_skew_us : int;  (** spread of merge.commit instants across nodes *)
  er_commits : int;
  er_aborts : int;
  er_lat_mean_ms : float;  (** mean committed latency *)
}

val epoch_rows : t -> epoch_row list
(** One row per epoch observed in the trace, sorted by epoch number. *)

val slowest_epochs : t -> top:int -> epoch_row list
(** The [top] epochs by maximum merge duration, slowest first. *)

val skew_stats : t -> float * int
(** (mean, max) cross-node merge.commit skew in µs over epochs merged on
    at least two nodes; [(0., 0)] when no such epoch exists. *)

(** {1 Causal DAG} *)

val unresolved_parents : t -> int * int
(** [(with_parent, unresolved)]: receive-side events carrying a parent
    span, and how many of those parents no event in the file emits
    (sender predates the measurement window or the ring buffer
    wrapped). *)

(** {1 Critical-path attribution}

    The committed latency [T4 - T0] of each fully traced write
    transaction is cut at the causally ordered instants of Algorithm 1
    into eight phases — execute (submit → commit point), seal wait
    (commit point → own epoch seal), wan (seal → last peer EOF, the
    binding WAN hop), merge wait, spec wait (seal → speculative merge
    start, fast path only), confirm wait (speculative start → confirm
    point, fast path only), validate (the merge itself) and commit
    (write-back → client notify). A transaction takes the wan/merge-wait
    cut {e or} the spec/confirm cut, never both: a confirmed speculative
    epoch (eocc, DESIGN.md §14) reports wan = merge wait = 0 — its WAN
    tail is exactly the confirm wait the speculation overlapped — and a
    classic or mispredicted epoch reports spec = confirm = 0.
    Intermediate instants are clamped to stay monotone, so the eight
    phases always sum to exactly the commit event's latency.
    Transactions without full lineage (read-only, GeoG-A, ring-buffer
    wrap) are excluded and reported in {!cp_report.cpr_committed} vs the
    sampled count. *)

type cp_txn = {
  cp_node : int;
  cp_span : int;
  cp_epoch : int;
  cp_submit_at : int;
  cp_latency_us : int;
  cp_execute : int;
  cp_seal_wait : int;
  cp_wan : int;
  cp_merge_wait : int;
  cp_spec_wait : int;  (** fast path: seal → speculative merge start *)
  cp_confirm_wait : int;  (** fast path: speculative start → confirm *)
  cp_validate : int;
  cp_commit : int;
  cp_wan_from : int;  (** binding sender node, [-1] when no WAN hop bound *)
  cp_wan_pair : string;  (** ["SenderRegion>MyRegion"], [""] when none *)
}

type cp_report = {
  cpr_txns : cp_txn list;  (** sorted by (submit_at, node, span) *)
  cpr_committed : int;  (** commit events seen in the trace *)
  cpr_parent_events : int;
  cpr_unresolved : int;
}

val critical_path : t -> cp_report

(** {1 Per-region-pair WAN accounting} *)

type wan_report = {
  wr_pairs : (string * int) list;
      (** ["A>B"] → bytes, in counter-registry (row-major region)
          order, read from the window-closing snapshot *)
  wr_total_bytes : int;
  wr_commits : int;  (** committed transactions in the window *)
}

val wan_report : t -> wan_report

(** {1 Rendering} *)

val render_report : ?epoch_limit:int -> ?top:int -> t -> string
(** Full report: meta line, epoch timeline, phase breakdown,
    slowest-epoch drill-down, skew summary. *)

val render_critical_path : t -> string
(** Per-node mean phase table, binding-WAN-hop pair table, sampling and
    parent-resolution summary. Byte-deterministic for a given trace. *)

val critical_path_json : t -> Jsonl.t
(** Machine-readable critical-path report: aggregate means plus one
    entry per sampled transaction, in the same deterministic order. *)

val render_wan : t -> string
val wan_json : t -> Jsonl.t
(** Per-region-pair WAN bytes and bytes/committed-txn for the
    measurement window. *)
