(** Expression binding and evaluation over row environments. *)

exception Sql_error of string

module Env : sig
  type binding = {
    binding_name : string;  (** alias if given, else table name *)
    schema : Gg_storage.Schema.t;
    mutable row : Gg_storage.Value.t array;
        (** the current row of an outer binding (every binding of an
            environment but the last); the last binding's row is the
            argument of a bound expression and this field is not read *)
  }

  type t = binding list
  (** Outermost first. The last binding is the scanned (innermost)
      side. *)

  val resolve : t -> string option -> string -> binding * int
  (** [resolve env qualifier col] finds the binding and column index.
      Raises {!Sql_error} on unknown or ambiguous columns. *)
end

type t = Gg_storage.Value.t array -> Gg_storage.Value.t
(** An expression bound to an environment: every column reference is
    resolved to a (binding, column index) slot, every parameter to its
    value. Applied to the scanned row, it reads the last binding's
    columns from that row and every other binding's from its [row]
    field, which the caller sets once per row of that outer side. An
    expression bound to no binding ignores its argument. NULL
    propagates through arithmetic and comparisons; AND/OR treat NULL
    as false. Comparisons return [Int 1]/[Int 0]. Applying it raises
    {!Sql_error} on type errors or out-of-range parameters. *)

val bind : Env.t -> params:Gg_storage.Value.t array -> Ast.expr -> t
(** Bind an expression once per statement. Raises {!Sql_error} on an
    unknown or ambiguous column; a parameter that was not supplied fails
    only when evaluated. *)

val bind_pred :
  Env.t ->
  params:Gg_storage.Value.t array ->
  Ast.expr ->
  (Gg_storage.Value.t array -> bool)
(** The boolean-context twin of {!bind}, for WHERE and ON clauses:
    [bind_pred env ~params e row] returns what
    [is_truthy (bind env ~params e row)] would, and raises the
    same {!Sql_error} in the same cases (at bind time for an unknown or
    ambiguous column, when evaluated for a missing parameter or a type
    error). AND, OR, NOT, the six comparisons and BETWEEN yield a
    boolean directly; a column compared with a literal or a supplied
    parameter reads its slot without an intermediate closure, and on
    the scanned row an integer slot against an integer constant
    compares inline. Comparisons evaluate the right operand first, as
    {!bind} does. *)

val eval_const : params:Gg_storage.Value.t array -> Ast.expr -> Gg_storage.Value.t
(** Bind against no rows and evaluate: for expressions that must not
    reference columns (INSERT values, access-path bounds). *)

val is_truthy : Gg_storage.Value.t -> bool
