type col_ty = TInt | TFloat | TStr

type column = { name : string; ty : col_ty }

type t = { table_name : string; columns : column array; key_cols : int array }

let ty_name = function TInt -> "int" | TFloat -> "float" | TStr -> "string"

let create ~name ~columns ~key =
  if columns = [] then invalid_arg "Schema.create: no columns";
  let columns = Array.of_list columns in
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun c ->
      if Hashtbl.mem seen c.name then
        invalid_arg (Printf.sprintf "Schema.create: duplicate column %s" c.name);
      Hashtbl.add seen c.name ())
    columns;
  if key = [] then invalid_arg "Schema.create: empty key";
  let index_of cname =
    let rec go i =
      if i >= Array.length columns then
        invalid_arg (Printf.sprintf "Schema.create: unknown key column %s" cname)
      else if columns.(i).name = cname then i
      else go (i + 1)
    in
    go 0
  in
  let key_cols = Array.of_list (List.map index_of key) in
  { table_name = name; columns; key_cols }

let arity t = Array.length t.columns

let col_index t name =
  let rec go i =
    if i >= Array.length t.columns then None
    else if t.columns.(i).name = name then Some i
    else go (i + 1)
  in
  go 0

let col_ty t i = t.columns.(i).ty

let is_key_col t i = Array.exists (fun k -> k = i) t.key_cols

let primary_key t row = Array.map (fun i -> row.(i)) t.key_cols

let validate_row t row =
  if Array.length row <> Array.length t.columns then
    Error
      (Printf.sprintf "table %s expects %d columns, got %d" t.table_name
         (Array.length t.columns) (Array.length row))
  else begin
    let err = ref None in
    Array.iteri
      (fun i v ->
        if !err = None then
          match (v, t.columns.(i).ty) with
          | Value.Null, _ ->
            if is_key_col t i then
              err :=
                Some
                  (Printf.sprintf "NULL in key column %s" t.columns.(i).name)
          | Value.Int _, TInt | Value.Float _, TFloat | Value.Str _, TStr -> ()
          | v, ty ->
            err :=
              Some
                (Printf.sprintf "column %s expects %s, got %s"
                   t.columns.(i).name (ty_name ty) (Value.type_name v)))
      row;
    match !err with None -> Ok () | Some m -> Error m
  end
