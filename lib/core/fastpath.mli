(** The eocc clock-assisted fast path (DESIGN.md §14): speculatively
    start epoch [e]'s merge charge (and the local WAL group commit) once
    every peer that still owes part of [e] is past its predicted-arrival
    watermark deadline, then confirm or discard it when [e] turns
    merge-ready. The merge itself runs once, at confirmation, so
    speculation moves simulated work earlier, never a client answer.

    A node holds one [t] only when the fast path is on; otherwise none
    is installed and no function here runs. The module owns the
    predictors' feed, the armed epoch, the wakeup dedup and its own
    trace events and counters; it hands decisions back, and the caller
    collects write sets, writes the log and schedules timers. *)

type t

val create :
  Params.t -> clock:Gg_sim.Clock.t -> obs:Gg_obs.Obs.t ->
  metrics:Metrics.t -> node:int -> t option
(** [None] unless {!Params.t.fastpath} is on. *)

val reset : t -> unit
(** Disarm and forget the pending wakeup (crash, or a state install). *)

val observe : t -> src:int -> now:int -> Gg_crdt.Writeset.t list -> unit
(** Feed write sets that arrived from [src] to the sender's watermark
    and the region-pair one-way delay estimator. *)

type plan =
  | Speculate  (** every incomplete peer is past its deadline: {!arm} *)
  | Wake_at of int  (** re-plan then; no earlier wakeup is pending *)
  | Nothing

val plan : t -> e:int -> now:int -> incomplete:int list -> plan
(** For sealed epoch [e], given the peers whose batch is incomplete. *)

val woke : t -> at:int -> unit
(** The wakeup returned as [Wake_at at] fired. *)

val arm :
  t -> e:int -> now:int -> duration:int -> n_records:int -> keys:int list ->
  unit
(** Start epoch [e]'s speculative merge charge of [duration] over the
    sorted packed csns [keys]. The caller prelogs the WAL at [now]. *)

type settled =
  | Confirmed of { start : int; duration : int; span : int; prelog : int }
      (** the merge charged since [start], back-dated so wait + merge
          telescope to the commit instant, under causal span [span] *)
  | Mispredicted of { prelog : int }
      (** a straggler broke its watermark: re-merge now. The prelog
          stays valid — stragglers are remote. *)
  | Not_armed

val settle : t -> e:int -> now:int -> keys:int list -> settled
(** Epoch [e] is merge-ready with the sorted packed csns [keys];
    disarm it. [prelog] is the instant the WAL prelog went out. *)
