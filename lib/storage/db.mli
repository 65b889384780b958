(** A catalog of tables — one full replica's database state. *)

type t

val create : unit -> t

val create_table :
  t -> name:string -> columns:Schema.column list -> key:string list -> Table.t
(** Raises [Invalid_argument] if the table exists. *)

val add_table : t -> Schema.t -> Table.t
(** Create a table from an existing schema. *)

val get_table : t -> string -> Table.t option
val get_table_exn : t -> string -> Table.t
(** Raises [Not_found]. *)

val table_names : t -> string list
(** Sorted. *)

val catalog : t -> int
(** A stamp of the table set and of every table's secondary indexes: it
    grows whenever a table is added ({!create_table}, {!add_table}), the
    tables are replaced ({!replace_contents}) or an index is created on
    one of them ({!Table.create_index}), and nothing else changes it.
    Compiled SQL plans bind tables and access paths, so a holder of
    plans drops them when this moves. Costs a walk of the table set. *)

val temp_clear_all : t -> unit
(** Drop every table's temporary insert entries (end of epoch). *)

val purge_tombstones : t -> before_cen:int -> int
(** GC tombstones older than the given epoch across all tables. *)

val digest : t -> string
(** Hex MD5 over the sorted table names and each table's
    {!Table.digest}, so an unchanged table costs a cache hit. Two
    replicas holding consistent snapshots produce equal digests. *)

val copy : t -> t
(** Deep copy of every table (state transfer to a recovering replica). *)

val replace_contents : t -> from:t -> unit
(** Replace this database's tables with deep copies of [from]'s (the
    receiving side of state transfer). *)
