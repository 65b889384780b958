(** Observability substrate: a registry of named instruments plus a
    span/event tracer keyed on simulated time.

    One [Obs.t] lives per simulation ({!Gg_sim.Sim.create} makes it and
    points its clock at the sim); every layer (sim, net, node, raft,
    harness) registers counters/gauges/histograms in it and emits trace
    events into a fixed-capacity ring buffer.

    Cost model: instruments are plain mutable records (an increment is a
    load + store, same as the ad-hoc counters they replace). Tracing is
    {e disabled by default}: the ring buffer is not even allocated until
    {!set_tracing} first enables it, and every emission site guards on
    {!tracing}, so a disabled tracer costs one boolean test per
    potential event. *)

module Counter : sig
  type t

  val make : string -> t
  (** Standalone (unregistered) counter — for components created without
      a registry. *)

  val name : t -> string
  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
  val set : t -> int -> unit
  val reset : t -> unit
end

module Gauge : sig
  type t

  val make : string -> t
  val name : t -> string
  val set : t -> float -> unit
  val value : t -> float
  val reset : t -> unit
end

module Histogram : sig
  type t

  val make : string -> t
  val name : t -> string
  val observe : t -> float -> unit

  val hist : t -> Gg_util.Stats.Hist.t
  (** The live underlying histogram (invalidated by {!reset}). *)

  val count : t -> int
  val reset : t -> unit
end

module Trace : sig
  type event = {
    at : int;  (** simulated time, µs *)
    node : int;  (** emitting node id, [-1] for cluster-level events *)
    cat : string;  (** category: "txn", "epoch", "net", "raft", "cluster" *)
    name : string;  (** event name within the category *)
    epoch : int;  (** epoch number (cen), [-1] when not epoch-scoped *)
    span : int;  (** causal span id ({!new_span}), [-1]/[0] for instants *)
    parent : int;
        (** span id of the causal parent (for receive-side events, the
            sender's span carried on the wire); [-1]/[0] when none *)
    dur : int;  (** duration in µs, [-1] for instant events *)
    detail : string;  (** free-form ["k=v k=v"] payload, [""] if none *)
  }
end

type t

val create : ?trace_capacity:int -> unit -> t
(** [trace_capacity] bounds the event ring buffer (default 2{^18});
    older events are overwritten once it wraps, with {!dropped_events}
    counting the loss. *)

val set_clock : t -> (unit -> int) -> unit
(** Wire the tracer to a time source (the owning simulation). *)

val now : t -> int

(** {1 Instrument registry}

    [counter t name] is get-or-create: the first call registers, later
    calls return the same instrument, so any module can look up a shared
    metric cheaply by name. Raises [Invalid_argument] if [name] is
    already registered as a different kind. *)

val counter : t -> string -> Counter.t
val gauge : t -> string -> Gauge.t
val histogram : t -> string -> Histogram.t

val counter_values : t -> (string * int) list
(** Snapshot of every registered counter, in registration order
    (deterministic — feeds the JSONL snapshot stream). *)

val on_reset : t -> (unit -> unit) -> unit
(** Register extra state to clear on {!reset_all} (per-epoch tables,
    client-side stats, ...). *)

val reset_all : t -> unit
(** One-call warm-up reset: zero every registered instrument, run every
    {!on_reset} hook (in registration order), and clear the trace ring
    buffer, so all measurement windows start at the same instant. *)

(** {1 Tracing} *)

val tracing : t -> bool
val set_tracing : t -> bool -> unit

val new_span : t -> node:int -> int
(** Allocate a causal span id: a process-unique positive integer with
    [node] packed into the low bits (decode with {!span_node}). Returns
    [0] — the "no span" wire value — without consuming a sequence number
    while tracing is disabled, so traced and untraced runs behave
    identically on the wire. Allocation happens on the simulation thread
    only, keeping the id stream byte-deterministic at any [--jobs]
    width. The sequence survives {!reset_all}
    (in-flight messages may still carry pre-reset spans). *)

val span_node : int -> int
(** The node id packed into a span by {!new_span} ([-1] for span 0). *)

val emit :
  t ->
  ?at:int ->
  ?node:int ->
  ?epoch:int ->
  ?span:int ->
  ?parent:int ->
  ?dur:int ->
  ?detail:string ->
  cat:string ->
  string ->
  unit
(** Record an event ([?at] defaults to the clock's current time). A
    no-op while tracing is disabled; emission sites that build a
    [detail] string should still guard on {!tracing} to skip the
    formatting work. *)

val events : t -> Trace.event list
(** Buffered events, oldest first. *)

val events_total : t -> int
(** Events emitted since the last reset (including overwritten ones). *)

val dropped_events : t -> int
(** Events lost to ring-buffer wrap-around since the last reset. *)
