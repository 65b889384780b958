(** Table schemas: column names/types and the primary key. *)

type col_ty = TInt | TFloat | TStr

type column = { name : string; ty : col_ty }

type t = private {
  table_name : string;
  columns : column array;
  key_cols : int array;  (** indices into [columns] *)
}

val create : name:string -> columns:column list -> key:string list -> t
(** Raises [Invalid_argument] on duplicate column names, an empty or
    unknown key, or an empty column list. *)

val arity : t -> int
val col_index : t -> string -> int option
val col_ty : t -> int -> col_ty
val is_key_col : t -> int -> bool

val primary_key : t -> Value.t array -> Value.t array
(** Project the key columns out of a full row. *)

val validate_row : t -> Value.t array -> (unit, string) result
(** Arity and per-column type check (NULL allowed in non-key columns). *)
