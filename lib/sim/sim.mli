(** Discrete-event simulation engine.

    Time is an [int] count of {e microseconds}. All cluster components
    (nodes, clients, the network) are callbacks scheduled on a single
    engine, which makes whole geo-distributed runs deterministic and
    seedable. *)

type t

val create : ?obs:Gg_obs.Obs.t -> unit -> t
(** Every simulation owns an observability registry (created here unless
    one is supplied) whose clock is wired to simulated time; components
    sharing the sim register their instruments and trace events in it. *)

val now : t -> int
(** Current simulated time (µs). *)

val obs : t -> Gg_obs.Obs.t
(** The registry/tracer bound to this simulation. *)

val events : t -> int
(** Total events executed since creation (throughput accounting); backed
    by the ["sim.events"] counter, so {!Gg_obs.Obs.reset_all} zeroes
    it. *)

val schedule : t -> after:int -> (unit -> unit) -> unit
(** [schedule t ~after f] runs [f] at [now t + max 0 after]. Events with
    equal timestamps run in scheduling order. *)

val schedule_at : t -> int -> (unit -> unit) -> unit
(** Absolute-time variant; past times run "now". *)

type timer
(** A scheduled event that can still be cancelled. *)

val schedule_timer : t -> after:int -> (unit -> unit) -> timer
(** {!schedule}, returning a handle for {!cancel}: for timeouts that
    usually become moot before they fire. *)

val cancel : t -> timer -> unit
(** Drop a scheduled timer so it never runs (and never counts in
    {!events}). A no-op once it has run or been cancelled; every other
    event keeps its order. *)

val step : t -> bool
(** Run the single earliest event. [false] when the queue is empty. *)

val run : t -> unit
(** Run until no events remain. *)

val run_until : t -> int -> unit
(** [run_until t limit] runs all events with timestamp [<= limit] and
    leaves [now t = limit] (even if the queue drained earlier). *)

val pending : t -> int
(** Number of queued events (diagnostics). *)

(** {1 Time helpers} *)

val us : int -> int
val ms : int -> int
val sec : int -> int

val to_ms : int -> float
