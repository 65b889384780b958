type 'e access =
  | Point of 'e array
  | Prefix of 'e array
  | Range of { lo : 'e option; hi : 'e option }
  | Sec_index of string * 'e array
  | Full

let map f = function
  | Point es -> Point (Array.map f es)
  | Prefix es -> Prefix (Array.map f es)
  | Range { lo; hi } -> Range { lo = Option.map f lo; hi = Option.map f hi }
  | Sec_index (name, es) -> Sec_index (name, Array.map f es)
  | Full -> Full

let rec conjuncts e acc =
  match e with
  | Ast.Binop (Ast.And, a, b) -> conjuncts a (conjuncts b acc)
  | e -> e :: acc

let rec column_free = function
  | Ast.Const _ | Ast.Param _ -> true
  | Ast.Col _ -> false
  | Ast.Unop (_, e) -> column_free e
  | Ast.Binop (_, a, b) -> column_free a && column_free b
  | Ast.In_list (e, items) -> column_free e && List.for_all column_free items
  | Ast.Between (e, lo, hi) -> column_free e && column_free lo && column_free hi
  | Ast.Like (e, p) -> column_free e && column_free p

(* Bounds on the leading key column from top-level conjuncts: the first
   column-free lower and the first column-free upper bound found. Each
   is inclusive; the residual WHERE removes what a strict, NULL or
   reversed bound lets through. *)
let leading_range schema ~names where =
  let lead = schema.Gg_storage.Schema.key_cols.(0) in
  let is_lead q c =
    (q = None || List.mem (Option.get q) names)
    && Gg_storage.Schema.col_index schema c = Some lead
  in
  let lo = ref None and hi = ref None in
  let bound r e = if !r = None && column_free e then r := Some e in
  List.iter
    (function
      | Ast.Between (Ast.Col (q, c), l, h) when is_lead q c ->
        bound lo l;
        bound hi h
      | Ast.Binop ((Ast.Ge | Ast.Gt), Ast.Col (q, c), e) when is_lead q c -> bound lo e
      | Ast.Binop ((Ast.Le | Ast.Lt), Ast.Col (q, c), e) when is_lead q c -> bound hi e
      | Ast.Binop ((Ast.Le | Ast.Lt), e, Ast.Col (q, c)) when is_lead q c -> bound lo e
      | Ast.Binop ((Ast.Ge | Ast.Gt), e, Ast.Col (q, c)) when is_lead q c -> bound hi e
      | _ -> ())
    (conjuncts where []);
  if !lo = None && !hi = None then Full else Range { lo = !lo; hi = !hi }

let access_path schema ~names where =
  match where with
  | None -> Full
  | Some where ->
    let key_cols = schema.Gg_storage.Schema.key_cols in
    let n_key = Array.length key_cols in
    (* For each key column, the first usable equality expression. *)
    let found : Ast.expr option array = Array.make n_key None in
    let key_pos col_idx =
      let rec go i =
        if i >= n_key then None
        else if key_cols.(i) = col_idx then Some i
        else go (i + 1)
      in
      go 0
    in
    let consider col_q col_name rhs =
      if column_free rhs && (col_q = None || List.mem (Option.get col_q) names)
      then
        match Gg_storage.Schema.col_index schema col_name with
        | None -> ()
        | Some ci -> (
          match key_pos ci with
          | Some kp when found.(kp) = None -> found.(kp) <- Some rhs
          | Some _ | None -> ())
    in
    List.iter
      (function
        | Ast.Binop (Ast.Eq, Ast.Col (q, c), rhs) -> consider q c rhs
        | Ast.Binop (Ast.Eq, lhs, Ast.Col (q, c)) -> consider q c lhs
        | _ -> ())
      (conjuncts where []);
    let prefix_len =
      let rec go i = if i < n_key && found.(i) <> None then go (i + 1) else i in
      go 0
    in
    if prefix_len = 0 then leading_range schema ~names where
    else
      let exprs = Array.init prefix_len (fun i -> Option.get found.(i)) in
      if prefix_len = n_key then Point exprs else Prefix exprs

let describe = function
  | Point _ -> "point"
  | Prefix e -> Printf.sprintf "prefix(%d)" (Array.length e)
  | Range { lo; hi } ->
    Printf.sprintf "range(%s..%s)"
      (if lo = None then "" else "lo")
      (if hi = None then "" else "hi")
  | Sec_index (n, _) -> Printf.sprintf "index(%s)" n
  | Full -> "full-scan"

(* Equality bindings (column index -> rhs) usable for index probes. *)
let equalities schema ~names where =
  let acc = ref [] in
  (match where with
  | None -> ()
  | Some where ->
    let consider q c rhs =
      if column_free rhs && (q = None || List.mem (Option.get q) names) then
        match Gg_storage.Schema.col_index schema c with
        | Some ci when not (List.mem_assoc ci !acc) -> acc := (ci, rhs) :: !acc
        | Some _ | None -> ()
    in
    List.iter
      (function
        | Ast.Binop (Ast.Eq, Ast.Col (q, c), rhs) -> consider q c rhs
        | Ast.Binop (Ast.Eq, lhs, Ast.Col (q, c)) -> consider q c lhs
        | _ -> ())
      (conjuncts where []));
  !acc

let access_path_table table ~names where =
  let schema = Gg_storage.Table.schema table in
  match access_path schema ~names where with
  | (Point _ | Prefix _ | Sec_index _) as a -> a
  | (Range _ | Full) as fallback -> (
    (* try a secondary index fully covered by equality conjuncts *)
    let eqs = equalities schema ~names where in
    let candidate =
      List.fold_left
        (fun acc iname ->
          match acc with
          | Some _ -> acc
          | None -> (
            match Gg_storage.Table.index_cols table ~name:iname with
            | None -> None
            | Some cols ->
              if Array.for_all (fun c -> List.mem_assoc c eqs) cols then
                Some (iname, Array.map (fun c -> List.assoc c eqs) cols)
              else None))
        None
        (Gg_storage.Table.index_names table)
    in
    match candidate with
    | Some (iname, exprs) -> Sec_index (iname, exprs)
    | None -> fallback)
