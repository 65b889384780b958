(** Online statistics and latency histograms for experiment metrics. *)

(** {1 Scalar accumulators} *)

module Acc : sig
  type t
  (** Mean/variance/min/max accumulator (Welford). *)

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** 0 when empty. *)

  val variance : t -> float
  val min : t -> float
  (** [nan] when empty. *)

  val max : t -> float
  (** [nan] when empty. *)

  val total : t -> float
  val merge : t -> t -> t
  (** Combine two accumulators into a fresh one. *)
end

(** {1 Latency histograms} *)

module Hist : sig
  type t
  (** Log-bucketed histogram of non-negative values (e.g. latencies in
      microseconds). Buckets grow geometrically, giving ~2% relative
      error, bounded memory, and O(1) insert. *)

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val percentile : t -> float -> float
  (** [percentile t p] with [p] in [0, 100]. 0 when empty. *)

  val p50 : t -> float
  val p95 : t -> float
  val p99 : t -> float
  val max : t -> float
  val merge : t -> t -> t
end

(** {1 Time series} *)

module Series : sig
  type t
  (** Append-only (x, y) series used for per-epoch and timeline figures. *)

  val create : unit -> t
  val add : t -> x:float -> y:float -> unit
  val length : t -> int
  val points : t -> (float * float) array
  (** In insertion order. *)
end
