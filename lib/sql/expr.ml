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

let cmp_binop op a b =
  match (a, b) with
  | Value.Null, _ | _, Value.Null -> Value.Null
  | _ ->
    let c = Value.compare a b in
    let r =
      let open Ast in
      match op with
      | Eq -> c = 0
      | Ne -> c <> 0
      | Lt -> c < 0
      | Le -> c <= 0
      | Gt -> c > 0
      | Ge -> c >= 0
      | _ -> fail "not a comparison operator"
    in
    of_bool r

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

type t = unit -> Value.t

(* Resolve every column reference and parameter once; the closure tree
   then reads the bound rows' current contents on each call. Unknown or
   ambiguous columns fail here, before any row is visited; a missing
   parameter still fails only when evaluated. *)
let bind env ~params e =
  let open Ast in
  let rec go e : t =
    match e with
    | Const v -> fun () -> v
    | Param i ->
      if i < 0 || i >= Array.length params then fun () ->
        fail "parameter ?%d not supplied (%d given)" (i + 1) (Array.length params)
      else
        let v = params.(i) in
        fun () -> v
    | Col (q, c) ->
      let b, i = Env.resolve env q c in
      fun () -> b.Env.row.(i)
    | Unop (Neg, e) ->
      let e = go e in
      fun () ->
        (match e () with
        | Value.Null -> Value.Null
        | Value.Int i -> Value.Int (-i)
        | Value.Float f -> Value.Float (-.f)
        | v -> fail "negation of %s" (Value.type_name v))
    | Unop (Not, e) ->
      let e = go e in
      fun () -> of_bool (not (is_truthy (e ())))
    | Binop (And, a, b) ->
      let a = go a in
      let b = go b in
      fun () -> of_bool (is_truthy (a ()) && is_truthy (b ()))
    | Binop (Or, a, b) ->
      let a = go a in
      let b = go b in
      fun () -> of_bool (is_truthy (a ()) || is_truthy (b ()))
    | Binop (Concat, a, b) ->
      let a = go a in
      let b = go b in
      fun () ->
        (match (a (), b ()) with
        | Value.Null, _ | _, Value.Null -> Value.Null
        | Value.Str x, Value.Str y -> Value.Str (x ^ y)
        | x, y -> Value.Str (Value.to_string x ^ Value.to_string y))
    | Binop (((Add | Sub | Mul | Div | Mod) as op), a, b) ->
      let a = go a in
      let b = go b in
      fun () -> num_binop op (a ()) (b ())
    | Binop (((Eq | Ne | Lt | Le | Gt | Ge) as op), a, b) ->
      let a = go a in
      let b = go b in
      fun () -> cmp_binop op (a ()) (b ())
    | In_list (e, items) ->
      let e = go e in
      let items = List.map go items in
      fun () ->
        (match e () with
        | Value.Null -> Value.Null
        | v ->
          of_bool (List.exists (fun i -> Value.compare v (i ()) = 0) items))
    | Between (e, lo, hi) ->
      let e = go e in
      let lo = go lo in
      let hi = go hi in
      fun () ->
        let v = e () in
        let l = lo () and h = hi () in
        (match (v, l, h) with
        | Value.Null, _, _ | _, Value.Null, _ | _, _, Value.Null -> Value.Null
        | _ ->
          of_bool (Value.compare v l >= 0 && Value.compare v h <= 0))
    | Like (e, pat) ->
      let e = go e in
      let pat = go pat in
      fun () ->
        (match (e (), pat ()) with
        | Value.Null, _ | _, Value.Null -> Value.Null
        | Value.Str s, Value.Str p -> of_bool (like_match s p)
        | v, p ->
          fail "LIKE expects strings, got %s and %s" (Value.type_name v)
            (Value.type_name p))
  in
  go e

let eval (e : t) = e ()
let eval_const ~params e = eval (bind [] ~params e)
