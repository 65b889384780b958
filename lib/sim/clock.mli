(** Bounded-skew simulated clocks plus the arrival predictors built on
    them (the eocc fast path's watermark machinery, DESIGN.md §14).

    Each node owns a local clock [read = sim_time + offset(node, t)]
    whose offset is a per-node base error plus linear drift, drawn
    deterministically from the seed and clamped to a configured bound —
    the guarantee an external time service (NTP/PTP) provides. Drift
    accumulates from time 0. Skew-burst fault schedules inject additional
    steps at run time ({!inject_step}); the clamp still holds, so the bound is an
    invariant, not a typical value.

    The same instance carries two receiver-side estimators the fast path
    needs, both updated only from the simulation thread (deterministic
    at any host parallelism):
    - a one-way delay EWMA per directed region pair, seeded from the
      topology matrix and fed with observed [arrival - stamp] samples;
    - a per-(receiver, sender) timestamp high-water mark — the
      watermark — monotone per sender because commit timestamps are
      monotone at the sender. *)

type t

val create : seed:int -> topology:Topology.t -> bound_us:int -> t
(** [bound_us = 0] gives perfectly synchronized clocks (every read is
    sim time). *)

val offset_us : t -> node:int -> at:int -> int
(** Clock error of [node] at sim time [at]; always in
    [[-bound_us, bound_us]]. *)

val read : t -> node:int -> at:int -> int
(** The node's local clock: [at + offset_us]. *)

val inject_step : t -> node:int -> delta_us:int -> unit
(** Skew burst: shift the node's offset by [delta_us] from now on (the
    total offset stays clamped to the bound). Fault schedules use this
    to force watermark mispredictions. *)

(** {1 One-way delay estimator} *)

val observe_delay : t -> src:int -> dst:int -> sample_us:int -> unit
(** Feed an observed [arrival - stamp] delay sample (clamped to >= 0).
    The sample mixes true network delay with the sender's clock error;
    {!deadline} bounds that error separately via the skew bound. *)

(** {1 Per-sender watermark} *)

val note_stamp : t -> src:int -> dst:int -> stamp:int -> at:int -> unit
(** Record a sender timestamp observed at sim time [at]. The watermark
    is monotone per sender: stale (reordered / duplicated) deliveries
    never move it backwards. *)

val hwm : t -> src:int -> dst:int -> (int * int) option
(** [(stamp, arrival)] of the sender's highest stamp seen, if any. *)

val deadline :
  t -> src:int -> dst:int -> boundary_us:int -> margin_us:int -> int
(** Predicted-arrival watermark: the sim time by which everything [src]
    stamped before [boundary_us] (on {e its} clock) should have arrived
    here. Extrapolated from the high-water mark when there is one — the
    sender-clock terms cancel, making the prediction skew-independent —
    otherwise the worst case over the skew bound plus the delay
    estimate. [margin_us] absorbs jitter and estimator error; a
    speculative seal that fires at this deadline and is later
    contradicted by a straggler is a misprediction, handled by the
    node's synchronous fallback. *)
