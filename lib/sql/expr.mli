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

type params = { mutable values : Gg_storage.Value.t array }
(** The positional parameters a bound expression reads: [?i] is
    [values.(i - 1)] as it stands when the expression is evaluated, not
    when it is bound. A compiled statement sets them before each run. *)

type t = Gg_storage.Value.t array -> Gg_storage.Value.t
(** An expression bound to an environment: every column reference is
    resolved to a (binding, column index) slot. Applied to the scanned
    row, it reads the last binding's columns from that row, every other
    binding's from its [row] field, which the caller sets once per row
    of that outer side, and each parameter from the {!params} it was
    bound with. An expression bound to no binding ignores its argument.
    NULL propagates through arithmetic and comparisons; AND/OR treat
    NULL as false. Comparisons return [Int 1]/[Int 0]. Applying it
    raises {!Sql_error} on type errors or parameters that were not
    supplied. *)

val bind : Env.t -> params:params -> Ast.expr -> t
(** Bind an expression once per statement. Raises {!Sql_error} on an
    unknown or ambiguous column; a parameter that was not supplied fails
    only when evaluated. *)

val bind_pred :
  Env.t -> params:params -> Ast.expr -> unit -> Gg_storage.Value.t array -> bool
(** The boolean-context twin of {!bind}, for WHERE and ON clauses, in
    two stages. [bind_pred env ~params e] resolves every column and
    raises {!Sql_error} on an unknown or ambiguous one, as {!bind}
    does. The function it returns is called once per execution, after
    [params] is set, and gives that execution's row test:
    [bind_pred env ~params e () row] returns what
    [is_truthy (bind env ~params e row)] would, and raises the same
    {!Sql_error} in the same cases (a missing parameter or a type error,
    when evaluated). AND, OR, NOT, the six comparisons and BETWEEN yield
    a boolean directly; a column compared with a literal or a supplied
    parameter, or between two of them, reads its slot against that
    value without an intermediate closure, and on the scanned row an
    integer slot against integer values compares inline. Comparisons
    evaluate the right operand first, as {!bind} does. *)

val is_truthy : Gg_storage.Value.t -> bool
