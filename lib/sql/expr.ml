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

(* Is [b] the scanned binding, the innermost (last in [env])? A bound
   expression reads its columns from the row it is applied to, and every
   other binding's from its [row] field, which the caller writes once
   per row of that outer side. *)
let is_inner env b = match List.rev env with ib :: _ -> ib == b | [] -> false

(* Resolve every column reference and parameter once; the closure tree
   then reads the scanned row it is given and the outer bindings'
   current rows on each call. Unknown or ambiguous columns fail here,
   before any row is visited; a missing parameter still fails only when
   evaluated. *)
let bind env ~params e =
  let open Ast in
  let rec go e : t =
    match e with
    | Const v -> fun _ -> v
    | Param i ->
      if i < 0 || i >= Array.length params then fun _ ->
        fail "parameter ?%d not supplied (%d given)" (i + 1) (Array.length params)
      else
        let v = params.(i) in
        fun _ -> v
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

let eval_const ~params e = bind [] ~params e [||]

(* The boolean-context twin of [bind]: the closure returns what
   [is_truthy (bind env ~params e row)] would, and raises what it
   would, without boxing a truth value per node. Columns resolve in
   [bind]'s order, so the same unknown column is reported. *)
let bind_pred env ~params e =
  let open Ast in
  (* A non-NULL constant operand: a literal or a supplied parameter. A
     missing parameter stays an expression, so it fails when evaluated;
     a NULL one too, so the column is still read as [bind] reads it. *)
  let const = function
    | Const Value.Null -> None
    | Const v -> Some v
    | Param i when i >= 0 && i < Array.length params -> (
      match params.(i) with Value.Null -> None | v -> Some v)
    | _ -> None
  in
  (* [col op v]: the column's slot against a constant, read directly;
     on the scanned row an Int slot against an Int constant compares
     inline, [Eq] without going through [holds]. *)
  let col_vs_const q c op v =
    let b, i = Env.resolve env q c in
    let slow x = holds op (Value.compare x v) in
    if not (is_inner env b) then fun _ ->
      match b.Env.row.(i) with Value.Null -> false | x -> slow x
    else
      match (v, op) with
      | Value.Int y, Eq ->
        fun row ->
          (match row.(i) with
          | Value.Int x -> x = y
          | Value.Null -> false
          | x -> slow x)
      | Value.Int y, _ ->
        fun row ->
          (match row.(i) with
          | Value.Int x -> holds op (Int.compare x y)
          | Value.Null -> false
          | x -> slow x)
      | _ -> fun row -> (match row.(i) with Value.Null -> false | x -> slow x)
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
      | _ -> Value.compare v l >= 0 && Value.compare v h <= 0
  in
  let rec go e : Value.t array -> bool =
    match e with
    | Unop (Not, e) ->
      let e = go e in
      fun row -> not (e row)
    | Binop (And, a, b) ->
      let a = go a in
      let b = go b in
      fun row -> a row && b row
    | Binop (Or, a, b) ->
      let a = go a in
      let b = go b in
      fun row -> a row || b row
    | Binop (((Eq | Ne | Lt | Le | Gt | Ge) as op), a, b) -> (
      match (a, const a, b, const b) with
      | Col (q, c), _, _, Some v -> col_vs_const q c op v
      | _, Some v, Col (q, c), _ -> col_vs_const q c (flip op) v
      | _ -> compare_bound op a b)
    | Between ((Col (q, c) as col), lo, hi) -> (
      match (const lo, const hi) with
      | Some l, Some h -> (
        let b, i = Env.resolve env q c in
        let in_range v = Value.compare v l >= 0 && Value.compare v h <= 0 in
        match (l, h) with
        | _ when not (is_inner env b) -> (
          fun _ -> match b.Env.row.(i) with Value.Null -> false | v -> in_range v)
        | Value.Int lo, Value.Int hi ->
          fun row ->
            (match row.(i) with
            | Value.Int x -> x >= lo && x <= hi
            | Value.Null -> false
            | v -> in_range v)
        | _ ->
          fun row ->
            (match row.(i) with Value.Null -> false | v -> in_range v))
      | _ -> between_bound col lo hi)
    | Between (e, lo, hi) -> between_bound e lo hi
    | _ ->
      let e = bind env ~params e in
      fun row -> is_truthy (e row)
  in
  go e
