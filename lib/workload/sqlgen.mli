(** SQL-shaped workload generators (DESIGN.md §13).

    This library cannot depend on the core, so a generator yields each
    transaction as a label plus a list of [(sql, params)] statements;
    the harness and checker wrap them into [Txn.Sql_txn] requests and
    run them through the SQL executor.

    {!Scan} mixes long range scans and full-scan aggregates over an
    [events] table with occasional single-column point updates — the
    analytics-adjacent shape that stresses read-set validation.
    {!Secidx} serves point queries through a secondary index on
    [profiles.region], with updates that flip rows between index keys to
    exercise index maintenance on the merge path. *)

type stmt = string * Gg_storage.Value.t array

module Scan : sig
  type profile = {
    name : string;
    records : int;
    regions : int;
    span : int;
    scan_pct : float;
  }

  val table_name : string
  val base : profile
  val with_records : profile -> int -> profile
  val load : profile -> Gg_storage.Db.t -> unit

  type t

  val create : profile -> seed:int -> t
  val profile : t -> profile

  val next_stmts : t -> string * stmt list
  (** [(label, statements)]; deterministic given seed and call
      sequence. *)
end

module Secidx : sig
  type profile = {
    name : string;
    records : int;
    regions : int;
    read_pct : float;
    flip_pct : float;
  }

  val table_name : string
  val index_name : string
  val base : profile
  val with_records : profile -> int -> profile

  val load : profile -> Gg_storage.Db.t -> unit
  (** Loads rows, then builds the [region] secondary index. *)

  type t

  val create : profile -> seed:int -> t
  val profile : t -> profile

  val next_stmts : t -> string * stmt list
end
