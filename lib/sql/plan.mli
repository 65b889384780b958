(** Physical access-path selection.

    The planner inspects a statement's WHERE clause and chooses, per base
    table, between a primary-key point lookup, a key-prefix scan, a
    secondary-index probe, a range scan over the leading key column, or
    a full scan.

    Residual-filter contract: an access path only narrows which rows are
    visited. The executor evaluates the whole WHERE clause on every
    visited row, so a path must visit a superset of the matching rows,
    in primary-key order for [Point], [Prefix] and [Range] (own inserts
    last, as on [Full]). Bounds are compared with
    {!Gg_storage.Value.compare}, the order of the table's ordered
    index. *)

type 'e access =
  | Point of 'e array
      (** one constant/parameter expression per key column *)
  | Prefix of 'e array
      (** expressions for a strict prefix of the key columns *)
  | Range of { lo : 'e option; hi : 'e option }
      (** inclusive bounds on the leading key column ([None] =
          unbounded). Chosen when no point, prefix or index path applies
          and a top-level conjunct bounds the leading key column by a
          column-free expression: [BETWEEN], [>=], [>], [<=] or [<], with
          the column on either side. Strict, NULL and reversed bounds are
          left to the residual WHERE; the visited set is always a
          superset of the matches. *)
  | Sec_index of string * 'e array
      (** secondary-index probe: index name + one expression per indexed
          column *)
  | Full

val access_path :
  Gg_storage.Schema.t -> names:string list -> Ast.expr option -> Ast.expr access
(** [access_path schema ~names where] — [names] are the identifiers
    (alias/table name) that refer to the target table; qualified columns
    with other qualifiers are ignored. Only top-level conjuncts whose
    other side is column-free are considered: [col = expr] for
    [Point]/[Prefix], the range forms above for [Range]. *)

val access_path_table :
  Gg_storage.Table.t -> names:string list -> Ast.expr option -> Ast.expr access
(** Like {!access_path} but prefers a secondary index fully covered by
    equality conjuncts over [Range] and [Full]. *)

val map : ('a -> 'b) -> 'a access -> 'b access
(** The same path with [f] applied to each of its expressions: the
    executor binds a statement's bounds once, when it compiles it. *)

val describe : 'e access -> string
