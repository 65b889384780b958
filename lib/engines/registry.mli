(** The canonical engine registry.

    One list maps every engine name the CLI / harness / check sweeps
    accept to its implementation. Two kinds exist:

    - [Core] — a variant of the full GeoGauss cluster, expressed as a
      {!Geogauss.Params} transform ([geogauss], [geog-s], [geog-a], and
      the clock-assisted fast path [eocc] = [Params.with_fastpath]).
      These run the real protocol with write sets, fault tolerance, and
      oracle coverage.
    - [Baseline] — a timing-and-conflict comparison model implementing
      {!Engine.S} ([crdb], [calvin], [aria], [calvinfs], [qstore],
      [slog], [anna]).

    The list is the single source of truth (same discipline as the
    experiments registry in [Gg_harness.Experiments]): the determinism
    lint checks that no other module grows its own name table, and
    {!find} rejects unknown names loudly with the full known list. *)

type impl =
  | Core of (Geogauss.Params.t -> Geogauss.Params.t)
      (** parameter transform onto the full GeoGauss cluster *)
  | Baseline of (module Engine.S)  (** standalone timing model *)

val entries : (string * impl) list
(** The canonical (name, implementation) list, in documentation order. *)

val names : string list
(** All registered engine names, in [entries] order. *)

val find : string -> impl
(** Look an engine up by name. @raise Invalid_argument on an unknown
    name, listing every known engine in the message. *)
