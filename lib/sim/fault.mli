(** Declarative fault-injection timelines.

    A fault schedule is a list of timestamped actions — node crashes and
    recoveries plus mid-run changes to the network's loss / duplication /
    reorder / jitter knobs. {!install} arms the whole schedule on the
    simulation up front, replacing the ad-hoc [Net.set_down] calls the
    fixed experiments used. The chaos checker ({!module:Gg_check})
    derives schedules from a seed and shrinks them toward minimal
    failing reproducers, so events must be plain data: printable,
    comparable, and re-installable on a fresh simulation. *)

type action =
  | Crash of int  (** take a node down (network and, via hook, service) *)
  | Recover of int  (** bring a node back *)
  | Loss of float  (** set the per-message drop probability *)
  | Dup of float  (** set the duplication probability *)
  | Reorder of float  (** set the reorder probability *)
  | Jitter of float  (** set the jitter fraction (spikes) *)
  | Corrupt of float  (** set the binary-frame corruption probability *)
  | Skew_step of { node : int; delta_us : int }
      (** skew burst: step a node's clock offset ({!Clock.inject_step}
          via the [on_skew] hook); forces fast-path mispredictions *)

type event = { at_ms : int; action : action }

val install :
  Net.t ->
  ?on_crash:(int -> unit) ->
  ?on_recover:(int -> unit) ->
  ?on_skew:(int -> delta_us:int -> unit) ->
  event list ->
  unit
(** Schedule every event at its absolute simulated time. [on_crash] /
    [on_recover] default to plain [Net.set_down]; a full-cluster caller
    passes [Cluster.crash] / [Cluster.recover] so membership changes and
    state transfer run too. [on_skew] (default: no-op) receives
    [Skew_step] actions — a cluster wires it to its {!Clock}. Knob
    actions apply directly to the network. Each application emits a
    ["fault"]-category trace event when tracing is enabled. *)

val schedule_to_string : event list -> string
(** Comma-joined events in the reproducer-line format (e.g.
    ["crash:2@350ms"]), ["-"] for the empty schedule. *)
