(** Expression binding and evaluation over row environments. *)

exception Sql_error of string

module Env : sig
  type binding = {
    binding_name : string;  (** alias if given, else table name *)
    schema : Gg_storage.Schema.t;
    mutable row : Gg_storage.Value.t array;
  }

  type t = binding list

  val resolve : t -> string option -> string -> binding * int
  (** [resolve env qualifier col] finds the binding and column index.
      Raises {!Sql_error} on unknown or ambiguous columns. *)
end

type t
(** An expression bound to an environment: every column reference is
    resolved to a (binding, column index) slot, every parameter to its
    value. Evaluating it reads the bindings' current rows. *)

val bind : Env.t -> params:Gg_storage.Value.t array -> Ast.expr -> t
(** Bind an expression once per statement. Raises {!Sql_error} on an
    unknown or ambiguous column; a parameter that was not supplied fails
    only when evaluated. *)

val eval : t -> Gg_storage.Value.t
(** Evaluate against the bindings' current rows. NULL propagates through
    arithmetic and comparisons; AND/OR treat NULL as false. Comparisons
    return [Int 1]/[Int 0]. Raises {!Sql_error} on type errors or
    out-of-range parameters. *)

val bind_pred :
  Env.t -> params:Gg_storage.Value.t array -> Ast.expr -> (unit -> bool)
(** The boolean-context twin of {!bind}, for WHERE and ON clauses:
    [bind_pred env ~params e] returns what
    [is_truthy (eval (bind env ~params e))] would, and raises the same
    {!Sql_error} in the same cases (at bind time for an unknown or
    ambiguous column, when evaluated for a missing parameter or a type
    error). AND, OR, NOT, the six comparisons and BETWEEN yield a
    boolean directly; a column compared with a literal or a supplied
    parameter reads its bound row slot without an intermediate
    closure. Comparisons evaluate the right operand first, as {!bind}
    does. *)

val eval_const : params:Gg_storage.Value.t array -> Ast.expr -> Gg_storage.Value.t
(** Bind against no rows and evaluate: for expressions that must not
    reference columns (INSERT values, access-path bounds). *)

val is_truthy : Gg_storage.Value.t -> bool
