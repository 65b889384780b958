module Value = Gg_storage.Value

exception Sql_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Sql_error m)) fmt

module Env = struct
  type binding = {
    binding_name : string;
    schema : Gg_storage.Schema.t;
    mutable row : Value.t array;
  }

  type t = binding list

  let resolve env qualifier col =
    match qualifier with
    | Some q -> (
      match List.find_opt (fun b -> b.binding_name = q) env with
      | None -> fail "unknown table or alias %s" q
      | Some b -> (
        match Gg_storage.Schema.col_index b.schema col with
        | Some i -> (b, i)
        | None -> fail "unknown column %s.%s" q col))
    | None -> (
      let hits =
        List.filter_map
          (fun b ->
            match Gg_storage.Schema.col_index b.schema col with
            | Some i -> Some (b, i)
            | None -> None)
          env
      in
      match hits with
      | [ hit ] -> hit
      | [] -> fail "unknown column %s" col
      | _ :: _ :: _ -> fail "ambiguous column %s" col)
end

let is_truthy = Value.is_truthy

(* Comparisons and logical operators return these shared values instead
   of allocating a result per evaluated row. *)
let v_true = Value.Int 1
let v_false = Value.Int 0
let of_bool b = if b then v_true else v_false

let num_binop op a b =
  let open Ast in
  match (a, b) with
  | Value.Null, _ | _, Value.Null -> Value.Null
  | Value.Int x, Value.Int y -> (
    match op with
    | Add -> Value.Int (x + y)
    | Sub -> Value.Int (x - y)
    | Mul -> Value.Int (x * y)
    | Div -> if y = 0 then fail "division by zero" else Value.Int (x / y)
    | Mod -> if y = 0 then fail "modulo by zero" else Value.Int (x mod y)
    | _ -> fail "not an arithmetic operator")
  | (Value.Int _ | Value.Float _), (Value.Int _ | Value.Float _) ->
    let fx = match a with Value.Int i -> float_of_int i | Value.Float f -> f | _ -> 0.0 in
    let fy = match b with Value.Int i -> float_of_int i | Value.Float f -> f | _ -> 0.0 in
    (match op with
    | Add -> Value.Float (fx +. fy)
    | Sub -> Value.Float (fx -. fy)
    | Mul -> Value.Float (fx *. fy)
    | Div -> if fy = 0.0 then fail "division by zero" else Value.Float (fx /. fy)
    | Mod -> fail "modulo on float"
    | _ -> fail "not an arithmetic operator")
  | _ ->
    fail "arithmetic on non-numeric values (%s, %s)" (Value.type_name a)
      (Value.type_name b)

(* Does a three-way comparison result satisfy [op]? *)
let holds op c =
  let open Ast in
  match op with
  | Eq -> c = 0
  | Ne -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0
  | _ -> fail "not a comparison operator"

let cmp_binop op a b =
  match (a, b) with
  | Value.Null, _ | _, Value.Null -> Value.Null
  | _ -> of_bool (holds op (Value.compare a b))

(* SQL LIKE with % (any run) and _ (any single char). *)
let like_match s p =
  let ns = String.length s and np = String.length p in
  let rec go i j =
    if j >= np then i >= ns
    else
      match p.[j] with
      | '%' ->
        (* try every suffix *)
        let rec try_from k = k <= ns && (go k (j + 1) || try_from (k + 1)) in
        try_from i
      | '_' -> i < ns && go (i + 1) (j + 1)
      | c -> i < ns && s.[i] = c && go (i + 1) (j + 1)
  in
  go 0 0

type t = Value.t array -> Value.t

type params = { mutable values : Value.t array }

let missing params i =
  fail "parameter ?%d not supplied (%d given)" (i + 1) (Array.length params.values)

(* Parameter [i] of the running execution. *)
let[@inline] param params i =
  let values = params.values in
  if i >= 0 && i < Array.length values then Array.unsafe_get values i
  else missing params i

(* Is [b] the scanned binding, the innermost (last in [env])? A bound
   expression reads its columns from the row it is applied to, and every
   other binding's from its [row] field, which the caller writes once
   per row of that outer side. *)
let is_inner env b = match List.rev env with ib :: _ -> ib == b | [] -> false

(* Resolve every column reference once; the closure tree then reads the
   scanned row it is given, the outer bindings' current rows and the
   current parameters on each call. Unknown or ambiguous columns fail
   here, before any row is visited; a missing parameter fails only when
   evaluated. *)
let bind env ~params e =
  let open Ast in
  let rec go e : t =
    match e with
    | Const v -> fun _ -> v
    | Param i -> fun _ -> param params i
    | Col (q, c) ->
      let b, i = Env.resolve env q c in
      if is_inner env b then fun row -> row.(i) else fun _ -> b.Env.row.(i)
    | Unop (Neg, e) ->
      let e = go e in
      fun row ->
        (match e row with
        | Value.Null -> Value.Null
        | Value.Int i -> Value.Int (-i)
        | Value.Float f -> Value.Float (-.f)
        | v -> fail "negation of %s" (Value.type_name v))
    | Unop (Not, e) ->
      let e = go e in
      fun row -> of_bool (not (is_truthy (e row)))
    | Binop (And, a, b) ->
      let a = go a in
      let b = go b in
      fun row -> of_bool (is_truthy (a row) && is_truthy (b row))
    | Binop (Or, a, b) ->
      let a = go a in
      let b = go b in
      fun row -> of_bool (is_truthy (a row) || is_truthy (b row))
    | Binop (Concat, a, b) ->
      let a = go a in
      let b = go b in
      fun row ->
        (match (a row, b row) with
        | Value.Null, _ | _, Value.Null -> Value.Null
        | Value.Str x, Value.Str y -> Value.Str (x ^ y)
        | x, y -> Value.Str (Value.to_string x ^ Value.to_string y))
    | Binop (((Add | Sub | Mul | Div | Mod) as op), a, b) ->
      let a = go a in
      let b = go b in
      fun row -> num_binop op (a row) (b row)
    | Binop (((Eq | Ne | Lt | Le | Gt | Ge) as op), a, b) ->
      let a = go a in
      let b = go b in
      fun row -> cmp_binop op (a row) (b row)
    | In_list (e, items) ->
      let e = go e in
      let items = List.map go items in
      fun row ->
        (match e row with
        | Value.Null -> Value.Null
        | v ->
          of_bool (List.exists (fun i -> Value.compare v (i row) = 0) items))
    | Between (e, lo, hi) ->
      let e = go e in
      let lo = go lo in
      let hi = go hi in
      fun row ->
        let v = e row in
        let l = lo row and h = hi row in
        (match (v, l, h) with
        | Value.Null, _, _ | _, Value.Null, _ | _, _, Value.Null -> Value.Null
        | _ ->
          of_bool (Value.compare v l >= 0 && Value.compare v h <= 0))
    | Like (e, pat) ->
      let e = go e in
      let pat = go pat in
      fun row ->
        (match (e row, pat row) with
        | Value.Null, _ | _, Value.Null -> Value.Null
        | Value.Str s, Value.Str p -> of_bool (like_match s p)
        | v, p ->
          fail "LIKE expects strings, got %s and %s" (Value.type_name v)
            (Value.type_name p))
  in
  go e

let in_range v l h = Value.compare v l >= 0 && Value.compare v h <= 0

(* The boolean-context twin of [bind], in two stages. Binding resolves
   every column, in [bind]'s order, so the same unknown column is
   reported; the function it returns is called once per execution, after
   the parameters are set, and gives the row test for their values: it
   returns what [is_truthy (bind env ~params e row)] would, and raises
   what it would, without boxing a truth value per node. *)
let bind_pred env ~params e =
  let open Ast in
  (* A constant operand as this execution sees it: a literal or a
     supplied parameter. NULL stands for none: a missing parameter stays
     an expression, so it fails when evaluated; a NULL one too, so the
     column is still read as [bind] reads it. *)
  let const = function
    | Const v -> v
    | Param i when i >= 0 && i < Array.length params.values -> params.values.(i)
    | _ -> Value.Null
  in
  (* [col op v]: the column's slot against a constant, read directly;
     on the scanned row an Int slot against an Int constant compares
     inline, [Eq] without going through [holds]. *)
  let col_vs_const (b, i) op v =
    if not (is_inner env b) then fun _ ->
      match b.Env.row.(i) with Value.Null -> false | x -> holds op (Value.compare x v)
    else
      match (v, op) with
      | Value.Int y, Eq ->
        fun row ->
          (match row.(i) with
          | Value.Int x -> x = y
          | Value.Null -> false
          | x -> Value.compare x v = 0)
      | Value.Int y, _ ->
        fun row ->
          (match row.(i) with
          | Value.Int x -> holds op (Int.compare x y)
          | Value.Null -> false
          | x -> holds op (Value.compare x v))
      | _ ->
        fun row ->
          (match row.(i) with Value.Null -> false | x -> holds op (Value.compare x v))
  in
  (* [col BETWEEN l AND h] with constant bounds, read the same way. *)
  let col_between (b, i) l h =
    if not (is_inner env b) then fun _ ->
      match b.Env.row.(i) with Value.Null -> false | v -> in_range v l h
    else fun row ->
      match row.(i) with
      | Value.Int x as v -> (
        match (l, h) with
        | Value.Int lo, Value.Int hi -> x >= lo && x <= hi
        | _ -> in_range v l h)
      | Value.Null -> false
      | v -> in_range v l h
  in
  (* [v op col] is [col op' v]. *)
  let flip = function Lt -> Gt | Le -> Ge | Gt -> Lt | Ge -> Le | op -> op in
  let compare_bound op a b =
    let a = bind env ~params a in
    let b = bind env ~params b in
    fun row ->
      (* [cmp_binop op (a row) (b row)] evaluates the right operand
         first; so does this. *)
      let vb = b row in
      let va = a row in
      match (va, vb) with
      | Value.Null, _ | _, Value.Null -> false
      | _ -> holds op (Value.compare va vb)
  in
  let between_bound e lo hi =
    let e = bind env ~params e in
    let lo = bind env ~params lo in
    let hi = bind env ~params hi in
    fun row ->
      let v = e row in
      let l = lo row and h = hi row in
      match (v, l, h) with
      | Value.Null, _, _ | _, Value.Null, _ | _, _, Value.Null -> false
      | _ -> in_range v l h
  in
  let fixed test () = test in
  let rec go e : unit -> Value.t array -> bool =
    match e with
    | Unop (Not, e) ->
      let e = go e in
      fun () ->
        let e = e () in
        fun row -> not (e row)
    | Binop (And, a, b) ->
      let a = go a in
      let b = go b in
      fun () ->
        let a = a () in
        let b = b () in
        fun row -> a row && b row
    | Binop (Or, a, b) ->
      let a = go a in
      let b = go b in
      fun () ->
        let a = a () in
        let b = b () in
        fun row -> a row || b row
    | Binop (((Eq | Ne | Lt | Le | Gt | Ge) as op), a, b) -> (
      let general = compare_bound op a b in
      match (a, b) with
      | Col (q, c), (Const _ | Param _) -> (
        let slot = Env.resolve env q c in
        fun () ->
          match const b with Value.Null -> general | v -> col_vs_const slot op v)
      | (Const _ | Param _), Col (q, c) -> (
        let slot = Env.resolve env q c in
        fun () ->
          match const a with Value.Null -> general | v -> col_vs_const slot (flip op) v)
      | _ -> fixed general)
    | Between ((Col (q, c) as col), lo, hi) -> (
      let general = between_bound col lo hi in
      match (lo, hi) with
      | (Const _ | Param _), (Const _ | Param _) -> (
        let slot = Env.resolve env q c in
        fun () ->
          match (const lo, const hi) with
          | Value.Null, _ | _, Value.Null -> general
          | l, h -> col_between slot l h)
      | _ -> fixed general)
    | Between (e, lo, hi) -> fixed (between_bound e lo hi)
    | _ ->
      let e = bind env ~params e in
      fixed (fun row -> is_truthy (e row))
  in
  go e
