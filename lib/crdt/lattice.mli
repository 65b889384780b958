(** Classic state-based CRDT lattices, used by the Anna baseline
    (coordination-free KV with lattice composition) and by the property
    tests that contrast GeoGauss's epoch-scoped merge with plain
    eventually consistent merges. Each module provides a commutative,
    associative, idempotent [merge]. *)

module Gset : sig
  type t

  val empty : t
  val singleton : string -> t
  val add : string -> t -> t
  val mem : string -> t -> bool
  val merge : t -> t -> t
  val cardinal : t -> int
  val elements : t -> string list
end

module Lww : sig
  type t = { ts : int; node : int; value : string }
  (** Last-writer-wins register ordered by (ts, node). *)

  val make : ts:int -> node:int -> value:string -> t
  val merge : t -> t -> t
  val equal : t -> t -> bool
end

module Lww_map : sig
  type t
  (** Map lattice of string keys to {!Lww.t}: the Anna database state. *)

  val empty : t
  val set : t -> key:string -> Lww.t -> t
  val get : t -> key:string -> Lww.t option
  val merge : t -> t -> t
  val cardinal : t -> int
  val equal : t -> t -> bool

  val delta : t -> since:int -> t
  (** Entries with [ts > since] — the delta state gossiped to peers. *)

  val bindings : t -> (string * Lww.t) list
  (** Sorted by key. *)
end
