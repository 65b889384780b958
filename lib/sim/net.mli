(** Simulated geo-distributed network.

    Point-to-point messages with topology-derived one-way latency,
    optional jitter, loss, duplication, reordering, a shared egress
    bandwidth pipe per node (the paper's cross-region links are ~100
    Mbps), per-node byte accounting (for WAN-traffic experiments) and
    node up/down state (for failure experiments).

    A message is a closure run at the destination at delivery time; the
    payload lives in the closure. Duplication delivers the closure twice —
    receivers must tolerate it (which is exactly what the paper's
    idempotent CRDT merge provides). *)

type t

val create :
  Sim.t ->
  rng:Gg_util.Rng.t ->
  topology:Topology.t ->
  ?jitter_frac:float ->
  ?loss:float ->
  ?dup:float ->
  ?reorder:float ->
  ?bandwidth_bps:int ->
  unit ->
  t
(** [create sim ~rng ~topology ()] builds a network. [jitter_frac] is the
    mean extra delay as a fraction of base latency (exponential, default
    0.05); [loss] the per-message drop probability (default 0); [dup] the
    per-message duplication probability (default 0); [reorder] the
    probability of adding a fat delay that reorders the message (default
    0); [bandwidth_bps] the per-node egress bandwidth (default
    100_000_000, i.e. the paper's 100 Mbps links). *)

val sim : t -> Sim.t
val topology : t -> Topology.t
val n_nodes : t -> int

val send : t -> src:int -> dst:int -> bytes:int -> (unit -> unit) -> unit
(** Queue a message. Silently dropped if either endpoint is down at send
    or delivery time, or if it loses the loss coin-flip. [src = dst]
    delivers with loopback latency and no WAN accounting. *)

val broadcast : t -> src:int -> bytes:int -> (int -> unit -> unit) -> unit
(** [broadcast t ~src ~bytes f] sends to every node except [src]; the
    per-destination closure is [f dst]. *)

(** {1 Failures} *)

val set_down : t -> int -> bool -> unit
(** Mark a node crashed ([true]) or recovered ([false]). While down it
    neither sends nor receives. *)

val is_down : t -> int -> bool

(** {1 Runtime fault knobs}

    The loss/dup/reorder/jitter probabilities given to {!create} can be
    changed mid-run — the chaos checker's fault timelines use this for
    loss bursts and jitter spikes ({!Fault}). Values are clamped to
    their valid range. Changing a probability never consumes randomness,
    so a fixed seed plus a fixed change schedule stays deterministic. *)

val set_loss : t -> float -> unit
val set_dup : t -> float -> unit
val set_reorder : t -> float -> unit
val set_jitter_frac : t -> float -> unit

val set_corrupt_frac : t -> float -> unit
(** Probability that a binary frame is delivered with a mangled payload.
    The transport carries closures, so it cannot corrupt payloads
    itself; senders of binary frames consult {!draw_corrupt} per
    destination and enqueue a truncated copy on [true]. *)

val loss : t -> float
val dup : t -> float
val reorder : t -> float
val jitter_frac : t -> float
val corrupt_frac : t -> float

val draw_corrupt : t -> bool
(** One corruption coin-flip (shared rng; no draw when the probability
    is zero, so enabling the knob never perturbs other seeds). Counts
    into ["net.corrupted.messages"] when true. *)

(** {1 Accounting}

    Counters are registered in the simulation's {!Gg_obs.Obs.t} registry
    (["net.sent.messages"], ["net.sent.bytes"], ["net.wan.bytes"],
    ["net.dropped.messages"]), so {!Gg_obs.Obs.reset_all} zeroes them
    together with everything else; loss/up/down transitions additionally
    emit ["net"]-category trace events when tracing is on. *)

val sent_messages : t -> int
val sent_bytes : t -> int
(** All traffic including intra-region. *)

val wan_bytes : t -> int
(** Cross-region traffic only (paper Table 3 counts WAN). *)

val wan_bytes_from : t -> int -> int
(** Cross-region bytes originated by a node. *)

val reset_accounting : t -> unit
(** Zero the counters (e.g. after warm-up). *)
