module Value = Gg_storage.Value
module Schema = Gg_storage.Schema
module Table = Gg_storage.Table
module Db = Gg_storage.Db
module Writeset = Gg_crdt.Writeset

open Expr (* for Sql_error and Env *)

type read_record = {
  r_table : string;
  r_key_str : string;
  r_csn : Gg_storage.Csn.t;
  r_cen : int;
}

type write_buf = {
  w_table : string;
  w_key : Value.t array;
  w_key_str : string;
  w_existed : bool;  (* live row existed when first written *)
  mutable w_op : Writeset.op;
  mutable w_data : Value.t array;
  mutable w_cols : int;
      (* column mask of an Update; Gg_crdt.Column.full unless the context
         tracks columns and every UPDATE's SET list stayed maskable *)
  mutable w_dead : bool;  (* insert-then-delete: no net effect *)
}

module Str_tbl = Hashtbl.Make (String)

(* Buffered writes by (table, encoded key). The pair hashes as the
   generic [Hashtbl] hashes it, so the iteration order a scan's own
   inserts follow is the generic table's; equality compares the two
   strings instead of calling polymorphic compare. *)
module Row_tbl = Hashtbl.Make (struct
  type t = string * string

  let equal (t1, k1) (t2, k2) = String.equal k1 k2 && String.equal t1 t2
  let hash = Hashtbl.hash
end)

module Ctx = struct
  type t = {
    db : Db.t;
    track_cols : bool;  (* capture UPDATE column masks for column merge *)
    record_reads : bool;  (* off: every recorder is a no-op *)
    mutable reads_rev : read_record list;
    mutable n_reads : int;  (* length of [reads_rev] *)
    mutable read_keys : unit Str_tbl.t Str_tbl.t option;
        (* table -> keys read: built at the first repeat check past
           [dedup_linear_max] reads, kept up to date from then on *)
    writes : write_buf Row_tbl.t;
    mutable write_order_rev : write_buf list;
    mutable written_tables : string list;  (* tables with a buffered write *)
  }

  let create ?(record_reads = false) ?(track_cols = false) db =
    {
      db;
      track_cols;
      record_reads;
      reads_rev = [];
      n_reads = 0;
      read_keys = None;
      writes = Row_tbl.create 16;
      write_order_rev = [];
      written_tables = [];
    }

  let db t = t.db
  let track_cols t = t.track_cols

  let index_read index r =
    let keys =
      match Str_tbl.find_opt index r.r_table with
      | Some keys -> keys
      | None ->
        let keys = Str_tbl.create 16 in
        Str_tbl.add index r.r_table keys;
        keys
    in
    Str_tbl.add keys r.r_key_str ()

  let push_read t ~table ~key_str ~(header : Gg_storage.Row_header.t) =
    let r =
      { r_table = table; r_key_str = key_str; r_csn = header.csn; r_cen = header.cen }
    in
    t.reads_rev <- r :: t.reads_rev;
    t.n_reads <- t.n_reads + 1;
    match t.read_keys with Some index -> index_read index r | None -> ()

  (* Reads the repeat check scans linearly, two string compares per
     read already recorded, before it indexes them by (table, key) and
     hashes instead: below it a scan costs less than hashing the probe.
     A YCSB transaction's 10 reads stay below it; a TPC-C New-Order (3
     reads plus 2 per item line, 5-15 lines) passes it from 7 lines up. *)
  let dedup_linear_max = 16

  let rec mem_read ~table ~key_str = function
    | [] -> false
    | r :: rest ->
      (String.equal r.r_key_str key_str && String.equal r.r_table table)
      || mem_read ~table ~key_str rest

  let read_index t =
    match t.read_keys with
    | Some index -> index
    | None ->
      let index = Str_tbl.create 4 in
      List.iter (index_read index) t.reads_rev;
      t.read_keys <- Some index;
      index

  let record_read t ~table ~key_str ~header =
    (* Keep the first observation of each row: RR compares the commit-time
       version against the first read. *)
    let seen =
      if t.n_reads < dedup_linear_max then mem_read ~table ~key_str t.reads_rev
      else
        match Str_tbl.find_opt (read_index t) table with
        | Some keys -> Str_tbl.mem keys key_str
        | None -> false
    in
    if not seen then push_read t ~table ~key_str ~header

  let ignore_read ~table:_ ~key_str:_ ~header:_ = ()

  (* The read recorder for a statement that may meet a row more than
     once, and for key-level ops: every read is checked. *)
  let recorder t = if t.record_reads then record_read t else ignore_read

  (* The read recorder for a statement that records each row at most
     once. When no earlier statement recorded a read, none of its reads
     can be a repeat: it appends without probing, and the next
     [record_read] checks those reads before its own. *)
  let distinct_recorder t =
    if not t.record_reads then ignore_read
    else if t.reads_rev = [] then push_read t
    else record_read t

  let read_set t = List.rev t.reads_rev

  (* The overlay is probed only once a write is buffered. *)
  let find_write t ~table ~key_str =
    match t.write_order_rev with
    | [] -> None
    | _ :: _ -> Row_tbl.find_opt t.writes (table, key_str)

  let rec mem_string s = function
    | [] -> false
    | x :: rest -> String.equal x s || mem_string s rest

  let wrote_table t table = mem_string table t.written_tables

  let lookup t tbl ~table ~key_str =
    match find_write t ~table ~key_str with
    | Some w when not w.w_dead ->
      if w.w_op = Writeset.Delete then `Absent else `Own w.w_data
    | Some _ | None -> (
      match Table.find_live tbl key_str with
      | Some e -> `Base e
      | None -> `Absent)

  (* The one coalescing rule. A key's first write records whether a
     committed row backs it; only an update of such a row carries a
     column mask, so an insert, a delete and a cancelled insert all
     carry [full]. *)
  let write t ~table ~key ~key_str ~existed ?(cols = Gg_crdt.Column.full) row =
    match (find_write t ~table ~key_str, row) with
    | None, _ ->
      let op, data, cols =
        match row with
        | None -> (Writeset.Delete, [||], Gg_crdt.Column.full)
        | Some data when existed -> (Writeset.Update, data, cols)
        | Some data -> (Writeset.Insert, data, Gg_crdt.Column.full)
      in
      let w =
        {
          w_table = table;
          w_key = key;
          w_key_str = key_str;
          w_existed = existed;
          w_op = op;
          w_data = data;
          w_cols = cols;
          w_dead = false;
        }
      in
      Row_tbl.replace t.writes (table, key_str) w;
      t.write_order_rev <- w :: t.write_order_rev;
      if not (wrote_table t table) then t.written_tables <- table :: t.written_tables
    | Some w, None ->
      (* deleting an own insert cancels it *)
      if w.w_existed then begin
        w.w_op <- Writeset.Delete;
        w.w_data <- [||];
        w.w_cols <- Gg_crdt.Column.full
      end
      else w.w_dead <- true
    | Some w, Some data ->
      (* also over an own delete or a cancelled insert, which revives
         it; coalesced writes touch the union of the columns *)
      w.w_dead <- false;
      w.w_op <- (if w.w_existed then Writeset.Update else Writeset.Insert);
      w.w_data <- data;
      w.w_cols <- Gg_crdt.Column.union w.w_cols cols

  let writeset_records t =
    List.fold_left
      (fun acc w ->
        if w.w_dead then acc
        else
          Writeset.make_record ~key_str:w.w_key_str ~cols:w.w_cols
            ~table:w.w_table ~key:w.w_key ~op:w.w_op ~data:w.w_data ()
          :: acc)
      [] t.write_order_rev

  let has_writes t =
    List.exists (fun w -> not w.w_dead) t.write_order_rev
end

type result = {
  columns : string list;
  rows : Value.t array list;
  affected : int;
}

let no_rows affected = { columns = []; rows = []; affected }

let get_table db name =
  match Db.get_table db name with
  | Some t -> t
  | None -> raise (Sql_error (Printf.sprintf "unknown table %s" name))

(* A visible row kept for later: base-table entry overlaid with the
   txn's own writes. *)
type vrow = {
  v_key : Value.t array;
  v_key_str : string;
  v_data : Value.t array;
  v_entry : Table.entry option;  (* None for rows inserted by this txn *)
}

let committed_vrow entry data =
  {
    v_key = entry.Table.key;
    v_key_str = entry.Table.key_str;
    v_data = data;
    v_entry = Some entry;
  }

let own_vrow w =
  { v_key = w.w_key; v_key_str = w.w_key_str; v_data = w.w_data; v_entry = None }

(* Probe values for the key columns: an integral Float becomes an Int
   for a TInt column and an Int becomes a Float for a TFloat column, so
   the encoded probe finds the row the residual [=] accepts. *)
let normalise_key_value ty v =
  match (ty, v) with
  | Schema.TInt, Value.Float f when Float.is_integer f && Float.abs f < 0x1p62 ->
    Value.Int (int_of_float f)
  | Schema.TFloat, Value.Int i -> Value.Float (float_of_int i)
  | _ -> v

(* A bound column-free expression's value (access-path bounds, INSERT
   values). *)
let eval_const (e : Expr.t) = e [||]

(* This txn's live writes on [tname], in the write table's order. *)
let iter_own_writes ctx tname g =
  Row_tbl.iter
    (fun (t, _) w ->
      if String.equal t tname && (not w.w_dead) && w.w_op <> Writeset.Delete then g w)
    ctx.Ctx.writes

let own_inserts ctx tname ~keep own pred =
  iter_own_writes ctx tname (fun w ->
      if (not w.w_existed) && pred w && keep w.w_data then own w)

let any_write _ = true

let key_values schema exprs =
  Array.mapi
    (fun i e ->
      normalise_key_value
        (Schema.col_ty schema schema.Schema.key_cols.(i))
        (eval_const e))
    exprs

let range_bound = function None -> None | Some e -> Some [| eval_const e |]

(* A committed row as this txn sees it, to [stored] or [updated] when
   [keep] holds of its data; nothing when the txn deleted it. *)
let visit_entry ctx ~tname ~written ~keep ~stored ~updated entry =
  let write =
    if written then Ctx.find_write ctx ~table:tname ~key_str:entry.Table.key_str else None
  in
  match write with
  | Some w when not w.w_dead -> (
    match w.w_op with
    | Writeset.Delete -> ()
    | Writeset.Insert | Writeset.Update -> if keep w.w_data then updated entry w.w_data)
  | Some _ | None -> if keep entry.Table.data then stored entry

(* Hand the visible rows of [tbl] under [access] that [keep] holds of
   to their consumers, applying the read-your-writes overlay: [stored
   entry] for a committed row whose stored data is visible, [updated
   entry data] for a committed row under this txn's update, [own w] for
   a row this txn inserted. [keep] is the statement's filter: it is
   tested on the data the txn sees, before any consumer is called. With
   no buffered write on the table a scan tests it inline and hands the
   kept entries straight to [stored]. Nothing is allocated per visited
   row: a consumer that keeps a row past the call builds its own
   [vrow]. *)
let visible_rows ctx tbl (access : Expr.t Plan.access) ~keep ~stored ~updated ~own =
  let schema = Table.schema tbl in
  let tname = schema.Schema.table_name in
  let written = Ctx.wrote_table ctx tname in
  match access with
  | Plan.Point exprs -> (
    let key = key_values schema exprs in
    let key_str = Value.encode_key key in
    (* The txn may have inserted this key itself. *)
    match if written then Ctx.find_write ctx ~table:tname ~key_str else None with
    | Some w when (not w.w_dead) && (not w.w_existed) && w.w_op <> Writeset.Delete ->
      if keep w.w_data then own w
    | Some _ | None -> (
      match Table.find_live tbl key_str with
      | Some entry -> visit_entry ctx ~tname ~written ~keep ~stored ~updated entry
      | None -> ()))
  | Plan.Prefix exprs ->
    let prefix = key_values schema exprs in
    Table.scan_prefix tbl ~prefix
      (visit_entry ctx ~tname ~written ~keep ~stored ~updated);
    if written then
      own_inserts ctx tname ~keep own (fun w ->
          Array.length w.w_key >= Array.length prefix
          &&
          let rec go i =
            i >= Array.length prefix
            || (Value.compare prefix.(i) w.w_key.(i) = 0 && go (i + 1))
          in
          go 0)
  | Plan.Range { lo; hi } ->
    let lo = range_bound lo and hi = range_bound hi in
    if written then
      Table.scan_range tbl ?lo ?hi
        (visit_entry ctx ~tname ~written ~keep ~stored ~updated)
    else Table.scan_range ~keep tbl ?lo ?hi stored;
    if written then own_inserts ctx tname ~keep own any_write
  | Plan.Sec_index (iname, exprs) -> (
    let probe = Array.map eval_const exprs in
    List.iter
      (visit_entry ctx ~tname ~written ~keep ~stored ~updated)
      (Table.index_lookup tbl ~name:iname ~key:probe);
    match Table.index_cols tbl ~name:iname with
    | None -> ()
    | Some cols ->
      let indexed data =
        Array.length data > Array.fold_left max 0 cols
        &&
        let rec go i =
          i >= Array.length cols
          || (Value.compare probe.(i) data.(cols.(i)) = 0 && go (i + 1))
        in
        go 0
      in
      (* Own inserts, and own updates that moved a committed row onto
         the probed key (the probe above saw only committed data). *)
      if written then
        iter_own_writes ctx tname (fun w ->
            if indexed w.w_data then
              if not w.w_existed then (if keep w.w_data then own w)
              else
                match Table.find_live tbl w.w_key_str with
                | Some entry when not (indexed entry.Table.data) ->
                  if keep w.w_data then updated entry w.w_data
                | Some _ | None -> ()))
  | Plan.Full ->
    if written then
      Table.scan tbl ~f:(visit_entry ctx ~tname ~written ~keep ~stored ~updated)
    else Table.scan ~keep tbl ~f:stored;
    if written then own_inserts ctx tname ~keep own any_write

let keep_all _ = true

(* A WHERE clause as a row filter, made per execution; no clause keeps
   every row. *)
let where_pred env ~params = function
  | None -> fun () -> keep_all
  | Some w -> Expr.bind_pred env ~params w

let record_entry_read record ~table entry =
  record ~table ~key_str:entry.Table.key_str ~header:entry.Table.header

let record_vrow_read record ~table v =
  match v.v_entry with
  | Some entry -> record_entry_read record ~table entry
  | None -> () (* own insert: nothing to validate *)

(* The access path of a statement on [tbl] (UPDATE and DELETE
   targets, a SELECT's scanned side) with its bounds bound once. *)
let bind_access tbl ~names ~params where =
  Plan.map (Expr.bind [] ~params) (Plan.access_path_table tbl ~names where)

(* --- SELECT --- *)

let binding_names (tr : Ast.table_ref) =
  match tr.alias with Some a -> [ a; tr.table ] | None -> [ tr.table ]

let proj_name i = function
  | Ast.Star -> "*"
  | Ast.Expr_proj (Ast.Col (_, c), None) -> c
  | Ast.Expr_proj (_, Some a) | Ast.Agg (_, _, Some a) -> a
  | Ast.Expr_proj (_, None) -> Printf.sprintf "col%d" i
  | Ast.Agg (fn, _, None) -> (
    match fn with
    | Ast.Count -> "count"
    | Ast.Sum -> "sum"
    | Ast.Min -> "min"
    | Ast.Max -> "max"
    | Ast.Avg -> "avg")

let has_agg projs =
  List.exists (function Ast.Agg _ -> true | _ -> false) projs

(* A projection with its expressions bound. *)
type bound_proj =
  | B_star
  | B_expr of Expr.t
  | B_agg of Ast.agg_fn * Expr.t option

type sort_key = (Value.t * Ast.order_dir) list

(* One group's aggregation state; one implicit group when GROUP BY is
   absent. [ints.(0)] counts the group's rows, which is COUNT( * ).
   Every other aggregate owns slots fixed when the statement is
   compiled: COUNT of an expression one int; SUM and AVG three ints
   (count, integer sum, 1 once a float was added) and a float; MIN, MAX
   and a non-aggregate projection one value, the last captured at the
   group's first row, as are the sort keys. *)
type group = {
  ints : int array;
  floats : float array;
  vals : Value.t array;
  sort : sort_key;
}

(* The value COUNT( * ) counts for every row. *)
let count_star = Value.Int 1

(* An aggregate's per-row step ([None] when the row count alone gives
   it) and its result, on the slots it owns: the step for [fn] is
   chosen here, once. [arg] is the bound argument ([None]: every row
   counts as [count_star]). *)
let compile_agg fn arg ~ints ~floats ~vals =
  let take r n =
    let s = !r in
    r := s + n;
    s
  in
  let value = match arg with None -> fun _ -> count_star | Some e -> e in
  match fn with
  | Ast.Count -> (
    match arg with
    | None -> (None, fun g -> Value.Int g.ints.(0))
    | Some e ->
      let k = take ints 1 in
      let step g row =
        match e row with Value.Null -> () | _ -> g.ints.(k) <- g.ints.(k) + 1
      in
      (Some step, fun g -> Value.Int g.ints.(k)))
  | Ast.Sum | Ast.Avg ->
    let k = take ints 3 and f = take floats 1 in
    let add g = function
      | Value.Null -> ()
      | Value.Int n ->
        g.ints.(k) <- g.ints.(k) + 1;
        g.floats.(f) <- g.floats.(f) +. float_of_int n;
        g.ints.(k + 1) <- g.ints.(k + 1) + n
      | Value.Float x ->
        g.ints.(k) <- g.ints.(k) + 1;
        g.floats.(f) <- g.floats.(f) +. x;
        g.ints.(k + 2) <- 1
      | v -> raise (Sql_error (Printf.sprintf "SUM/AVG of %s" (Value.type_name v)))
    in
    let step g row = add g (value row) in
    let result =
      if fn = Ast.Sum then fun g ->
        if g.ints.(k) = 0 then Value.Null
        else if g.ints.(k + 2) = 0 then Value.Int g.ints.(k + 1)
        else Value.Float g.floats.(f)
      else fun g ->
        if g.ints.(k) = 0 then Value.Null
        else Value.Float (g.floats.(f) /. float_of_int g.ints.(k))
    in
    (Some step, result)
  | Ast.Min | Ast.Max ->
    let m = take vals 1 in
    let better = if fn = Ast.Min then fun c -> c < 0 else fun c -> c > 0 in
    let step g row =
      match value row with
      | Value.Null -> ()
      | v -> (
        match g.vals.(m) with
        | Value.Null -> g.vals.(m) <- v
        | best -> if better (Value.compare v best) then g.vals.(m) <- v)
    in
    (Some step, fun g -> g.vals.(m))

(* One run's matches, newest first: projected rows, paired with their
   sort keys under ORDER BY; or the groups of an aggregate query, the
   one implicit group when GROUP BY is absent. *)
type matches = {
  mutable rows_rev : Value.t array list;
  mutable keyed_rev : (Value.t array * sort_key) list;
  mutable single : group option;
  mutable groups : (Value.t list, group) Hashtbl.t option;
  mutable group_order : Value.t list list;
}

let no_matches () =
  { rows_rev = []; keyed_rev = []; single = None; groups = None; group_order = [] }

let compile_select db (s : Ast.select) ~params =
  let from_tbl = get_table db s.from.table in
  let from_name = Option.value s.from.alias ~default:s.from.table in
  let from_binding =
    { Env.binding_name = from_name; schema = Table.schema from_tbl; row = [||] }
  in
  let join_info =
    Option.map
      (fun ((tr : Ast.table_ref), on) ->
        let tbl = get_table db tr.table in
        let name = Option.value tr.alias ~default:tr.table in
        let binding =
          { Env.binding_name = name; schema = Table.schema tbl; row = [||] }
        in
        (tbl, on, binding))
      s.join
  in
  (* The scanned side: its row is the argument of every bound
     expression; the outer side of a join is read from [from_binding]. *)
  let inner, env =
    match join_info with
    | None -> (from_binding, [ from_binding ])
    | Some (_, _, jb) -> (jb, [ from_binding; jb ])
  in
  let access = bind_access from_tbl ~names:(binding_names s.from) ~params s.where in
  let aggregating = has_agg s.projs || s.group_by <> [] in
  if aggregating then
    List.iter
      (function
        | Ast.Agg _ -> ()
        | Ast.Expr_proj _ when s.group_by <> [] -> ()
        | Ast.Star | Ast.Expr_proj _ ->
          raise (Sql_error "mixing aggregates and plain projections needs GROUP BY"))
      s.projs;
  (* Resolve every column reference once, before any row is visited. *)
  let bind e = Expr.bind env ~params e in
  let filter = where_pred env ~params s.where in
  let projs =
    List.map
      (function
        | Ast.Star -> B_star
        | Ast.Expr_proj (e, _) -> B_expr (bind e)
        | Ast.Agg (fn, arg, _) -> B_agg (fn, Option.map bind arg))
      s.projs
  in
  let order_by = List.map (fun (e, dir) -> (bind e, dir)) s.order_by in
  let group_by = List.map bind s.group_by in
  let join =
    Option.map (fun (tbl, on, _) -> (tbl, Expr.bind_pred env ~params on)) join_info
  in
  let n_projs = List.length s.projs in
  let projs_a = Array.of_list projs in
  let sort_keys row = List.map (fun (e, dir) -> (e row, dir)) order_by in
  let limit rows =
    match s.limit with
    | None -> rows
    | Some k -> List.filteri (fun i _ -> i < k) rows
  in
  (* Stable by the sort keys, then LIMIT. *)
  let order_and_limit keyed =
    let rows =
      if s.order_by = [] then List.map fst keyed
      else
        List.stable_sort
          (fun (_, ka) (_, kb) ->
            let rec cmp a b =
              match (a, b) with
              | (va, dir) :: ra, (vb, _) :: rb ->
                let c = Value.compare va vb in
                let c = match dir with Ast.Asc -> c | Ast.Desc -> -c in
                if c <> 0 then c else cmp ra rb
              | _, _ -> 0
            in
            cmp ka kb)
          keyed
        |> List.map fst
    in
    limit rows
  in
  (* [feed m row] takes a row the filter kept; [finish m] gives the
     result rows. *)
  let feed, finish =
    if aggregating then begin
      let ints = ref 1 and floats = ref 0 and vals = ref 0 in
      let steps = ref [] and captures = ref [] in
      let results =
        Array.map
          (function
            | B_agg (fn, bound) ->
              let step, result = compile_agg fn bound ~ints ~floats ~vals in
              Option.iter (fun step -> steps := step :: !steps) step;
              result
            | B_expr e ->
              let m = !vals in
              incr vals;
              captures := (m, e) :: !captures;
              fun g -> g.vals.(m)
            | B_star ->
              (* rejected above ("mixing aggregates and plain projections
                 needs GROUP BY"); kept as a query error *)
              raise (Sql_error "SELECT * cannot be combined with aggregates"))
          projs_a
      in
      let steps = Array.of_list (List.rev !steps) in
      let captures = Array.of_list (List.rev !captures) in
      let n_ints = !ints and n_floats = !floats and n_vals = !vals in
      (* Non-aggregate projections, then the sort keys, at a group's
         first row. *)
      let new_group row =
        let vals = Array.make n_vals Value.Null in
        Array.iter (fun (m, e) -> vals.(m) <- e row) captures;
        let sort = sort_keys row in
        { ints = Array.make n_ints 0; floats = Array.make n_floats 0.0; vals; sort }
      in
      let accumulate g row =
        g.ints.(0) <- g.ints.(0) + 1;
        for i = 0 to Array.length steps - 1 do
          steps.(i) g row
        done
      in
      let row_of g =
        let r = Array.make n_projs Value.Null in
        for i = 0 to n_projs - 1 do
          r.(i) <- results.(i) g
        done;
        r
      in
      if group_by = [] then begin
        (* With no GROUP BY and no matches, SQL still yields one row. *)
        let blank =
          {
            ints = Array.make n_ints 0;
            floats = Array.make n_floats 0.0;
            vals = Array.make n_vals Value.Null;
            sort = [];
          }
        in
        ( (fun m row ->
            match m.single with
            | Some g -> accumulate g row
            | None ->
              let g = new_group row in
              m.single <- Some g;
              accumulate g row),
          fun m ->
            order_and_limit
              [
                (match m.single with
                | Some g -> (row_of g, g.sort)
                | None -> (row_of blank, []));
              ] )
      end
      else
        ( (fun m row ->
            let groups =
              match m.groups with
              | Some groups -> groups
              | None ->
                let groups = Hashtbl.create 16 in
                m.groups <- Some groups;
                groups
            in
            let key = List.map (fun e -> e row) group_by in
            let g =
              match Hashtbl.find_opt groups key with
              | Some g -> g
              | None ->
                let g = new_group row in
                Hashtbl.replace groups key g;
                m.group_order <- key :: m.group_order;
                g
            in
            accumulate g row),
          fun m ->
            order_and_limit
              (List.rev_map
                 (fun key ->
                   let g = Hashtbl.find (Option.get m.groups) key in
                   (row_of g, g.sort))
                 m.group_order) )
    end
    else begin
      let proj_expr = function
        | B_expr e -> e
        | B_star | B_agg _ ->
          (* defended by the [aggregating] dispatch above; a proper error
             beats an [assert false] if a future path slips through *)
          fun _ -> raise (Sql_error "aggregate function outside an aggregate query")
      in
      (* A result row from the scanned row. A plain list of two
         expressions fills an array literal, evaluated left to right as
         [Array.map] would. *)
      let project : Value.t array -> Value.t array =
        if List.exists (function B_star -> true | B_expr _ | B_agg _ -> false) projs
        then fun row ->
          List.map
            (function
              | B_star ->
                Array.concat
                  (List.map (fun b -> if b == inner then row else b.Env.row) env)
              | p -> [| proj_expr p row |])
            projs
          |> Array.concat
        else
          match Array.map proj_expr projs_a with
          | [| a; b |] ->
            fun row ->
              let va = a row in
              let vb = b row in
              [| va; vb |]
          | es ->
            fun row ->
              let r = Array.make (Array.length es) Value.Null in
              for i = 0 to Array.length es - 1 do
                r.(i) <- es.(i) row
              done;
              r
      in
      if order_by = [] then
        ( (fun m row -> m.rows_rev <- project row :: m.rows_rev),
          fun m -> limit (List.rev m.rows_rev) )
      else
        ( (fun m row -> m.keyed_rev <- (project row, sort_keys row) :: m.keyed_rev),
          fun m -> order_and_limit (List.rev m.keyed_rev) )
    end
  in
  let columns =
    (* Expand star into actual column names. *)
    List.concat
      (List.mapi
         (fun i p ->
           match p with
           | Ast.Star ->
             List.concat_map
               (fun b ->
                 Array.to_list
                   (Array.map
                      (fun (c : Schema.column) -> c.Schema.name)
                      b.Env.schema.Schema.columns))
               env
           | Ast.Expr_proj _ | Ast.Agg _ -> [ proj_name i p ])
         s.projs)
  in
  let table = s.from.table in
  let scan =
    match join with
    | None ->
      (* The scan tests this run's filter; a kept row is recorded when
         the context records reads, then fed to the matches. *)
      fun ctx m ->
        let filter = filter () in
        let matched =
          if ctx.Ctx.record_reads then begin
            let record = Ctx.distinct_recorder ctx in
            fun entry data ->
              record_entry_read record ~table entry;
              feed m data
          end
          else fun _ data -> feed m data
        in
        visible_rows ctx from_tbl access ~keep:filter
          ~stored:(fun entry -> matched entry entry.Table.data)
          ~updated:matched
          ~own:(fun w -> feed m w.w_data)
    | Some (jtbl, on) ->
      (* Nested loop with the outer row bound once per outer row; the
         inner side is a full scan. An outer row is met once per inner
         match, so reads probe. *)
      let jtable = (Table.schema jtbl).Schema.table_name in
      fun ctx m ->
        let on = on () and filter = filter () in
        let keep jdata = on jdata && filter jdata in
        let record = Ctx.recorder ctx in
        let outer v =
          from_binding.Env.row <- v.v_data;
          let updated entry jdata =
            record_vrow_read record ~table v;
            record_entry_read record ~table:jtable entry;
            feed m jdata
          in
          visible_rows ctx jtbl Plan.Full ~keep
            ~stored:(fun entry -> updated entry entry.Table.data)
            ~updated
            ~own:(fun w ->
              record_vrow_read record ~table v;
              feed m w.w_data)
        in
        visible_rows ctx from_tbl access ~keep:keep_all
          ~stored:(fun entry -> outer (committed_vrow entry entry.Table.data))
          ~updated:(fun entry data -> outer (committed_vrow entry data))
          ~own:(fun w -> outer (own_vrow w))
  in
  fun ctx ->
    let m = no_matches () in
    scan ctx m;
    { columns; rows = finish m; affected = 0 }

(* --- INSERT --- *)

let compile_insert db ~table ~cols ~rows ~params =
  let tbl = get_table db table in
  let schema = Table.schema tbl in
  let arity = Schema.arity schema in
  let col_map =
    match cols with
    | None -> Array.init arity (fun i -> i)
    | Some cs ->
      Array.of_list
        (List.map
           (fun c ->
             match Schema.col_index schema c with
             | Some i -> i
             | None ->
               raise (Sql_error (Printf.sprintf "unknown column %s" c)))
           cs)
  in
  (* Each value is bound now; one that names a column fails when its
     row is reached, after the rows before it are written. *)
  let bind_value e =
    match Expr.bind [] ~params e with
    | bound -> bound
    | exception Sql_error m -> fun _ -> raise (Sql_error m)
  in
  let rows =
    List.map
      (fun exprs ->
        if List.length exprs <> Array.length col_map then None
        else Some (List.map bind_value exprs))
      rows
  in
  fun ctx ->
    let n = ref 0 in
    List.iter
      (fun values ->
        let values =
          match values with
          | Some values -> values
          | None -> raise (Sql_error "INSERT arity mismatch")
        in
        let row = Array.make arity Value.Null in
        List.iteri (fun i e -> row.(col_map.(i)) <- eval_const e) values;
        (match Schema.validate_row schema row with
        | Ok () -> ()
        | Error m -> raise (Sql_error m));
        let key = Schema.primary_key schema row in
        let key_str = Value.encode_key key in
        (* Duplicate checks against own writes then the table; an insert
           over an own delete or a cancelled insert revives that write. *)
        (match Ctx.find_write ctx ~table ~key_str with
        | Some w when (not w.w_dead) && w.w_op <> Writeset.Delete ->
          raise (Sql_error (Printf.sprintf "duplicate key in table %s" table))
        | Some _ -> ()
        | None ->
          if Table.find_live tbl key_str <> None then
            raise (Sql_error (Printf.sprintf "duplicate key in table %s" table)));
        Ctx.write ctx ~table ~key ~key_str ~existed:false (Some row);
        incr n)
      rows;
    no_rows !n

(* --- UPDATE / DELETE --- *)

(* The rows a statement on [table] targets, in visit order. *)
let compile_targets tbl ~table ~params where =
  let binding = { Env.binding_name = table; schema = Table.schema tbl; row = [||] } in
  let access = bind_access tbl ~names:[ table ] ~params where in
  let filter = where_pred [ binding ] ~params where in
  fun ctx ->
    let acc = ref [] in
    let updated entry data = acc := committed_vrow entry data :: !acc in
    visible_rows ctx tbl access ~keep:(filter ())
      ~stored:(fun entry -> updated entry entry.Table.data)
      ~updated
      ~own:(fun w -> acc := own_vrow w :: !acc);
    List.rev !acc

(* A target row's write: [v] is backed by a committed row unless this
   transaction inserted it. *)
let write_target ctx ~table v ?cols row =
  Ctx.write ctx ~table ~key:v.v_key ~key_str:v.v_key_str
    ~existed:(v.v_entry <> None) ?cols row

let compile_update db ~table ~sets ~where ~params =
  let tbl = get_table db table in
  let binding = { Env.binding_name = table; schema = Table.schema tbl; row = [||] } in
  let schema = Table.schema tbl in
  let set_indices =
    List.map
      (fun (c, e) ->
        match Schema.col_index schema c with
        | None -> raise (Sql_error (Printf.sprintf "unknown column %s" c))
        | Some i ->
          if Schema.is_key_col schema i then
            raise (Sql_error (Printf.sprintf "cannot update key column %s" c));
          (i, Expr.bind [ binding ] ~params e))
      sets
  in
  let targets = compile_targets tbl ~table ~params where in
  (* The SET list names the touched columns directly; a set wider than
     the maskable range degrades to the whole-row mask. *)
  let set_cols =
    match set_indices with
    | [] -> Gg_crdt.Column.full
    | (i, _) :: rest ->
      List.fold_left
        (fun acc (j, _) -> Gg_crdt.Column.union acc (Gg_crdt.Column.of_index j))
        (Gg_crdt.Column.of_index i) rest
  in
  fun ctx ->
    let targets = targets ctx in
    let cols = if Ctx.track_cols ctx then set_cols else Gg_crdt.Column.full in
    let record = Ctx.distinct_recorder ctx in
    List.iter
      (fun v ->
        let new_row = Array.copy v.v_data in
        List.iter (fun (i, e) -> new_row.(i) <- e v.v_data) set_indices;
        (match Schema.validate_row schema new_row with
        | Ok () -> ()
        | Error m -> raise (Sql_error m));
        record_vrow_read record ~table v;
        write_target ctx ~table v ~cols (Some new_row))
      targets;
    no_rows (List.length targets)

let compile_delete db ~table ~where ~params =
  let tbl = get_table db table in
  let targets = compile_targets tbl ~table ~params where in
  fun ctx ->
    let targets = targets ctx in
    let record = Ctx.distinct_recorder ctx in
    List.iter
      (fun v ->
        record_vrow_read record ~table v;
        write_target ctx ~table v None)
      targets;
    no_rows (List.length targets)

(* --- entry points --- *)

type plan = { params : Expr.params; exec : Ctx.t -> result }

let compile_stmt db stmt ~params =
  match stmt with
  | Ast.Select s -> compile_select db s ~params
  | Ast.Insert { table; cols; rows } -> compile_insert db ~table ~cols ~rows ~params
  | Ast.Update { table; sets; where } -> compile_update db ~table ~sets ~where ~params
  | Ast.Delete { table; where } -> compile_delete db ~table ~where ~params
  | Ast.Create_table { name; cols; key } ->
    let columns = List.map (fun (n, ty) -> { Schema.name = n; ty }) cols in
    let key =
      match (key, cols) with
      | [], [] -> raise (Sql_error "CREATE TABLE needs at least one column")
      | [], (first, _) :: _ -> [ first ]
      | _ :: _, _ -> key
    in
    fun ctx ->
      ignore (Db.create_table (Ctx.db ctx) ~name ~columns ~key);
      no_rows 0
  | Ast.Create_index { name; table; cols } ->
    let tbl = get_table db table in
    fun _ ->
      Table.create_index tbl ~name ~cols;
      no_rows 0

let compile db stmt =
  let params = { Expr.values = [||] } in
  match compile_stmt db stmt ~params with
  | exec -> Ok { params; exec }
  | exception (Sql_error m | Invalid_argument m) -> Error m

let run ctx plan ~params =
  plan.params.values <- params;
  let r =
    match plan.exec ctx with
    | r -> Ok r
    | exception (Sql_error m | Invalid_argument m) -> Error m
  in
  plan.params.values <- [||];
  r

let exec ctx stmt ~params =
  Result.bind (compile (Ctx.db ctx) stmt) (fun plan -> run ctx plan ~params)

let exec_sql ctx sql ~params =
  match Parser.parse_result sql with
  | Error m -> Error m
  | Ok stmt -> exec ctx stmt ~params
