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

(* Iterate the visible rows of [table] under [access], applying the
   read-your-writes overlay. [keep] is the residual filter on a row's
   visible data. A row it accepts goes to [committed entry data] when a
   committed entry backs it ([data] is the entry's data or this txn's
   update of it) and to [own w] when this txn inserted it. Nothing is
   allocated per visited row: a caller that keeps a row past the
   callback builds its own [vrow]. *)
let visible_rows ctx table access ~params ~keep ~committed ~own =
  let tbl = get_table (Ctx.db ctx) table in
  let schema = Table.schema tbl in
  let tname = schema.Schema.table_name in
  let written = Ctx.wrote_table ctx tname in
  let visit_committed entry data = if keep data then committed entry data in
  let emit_own_insert w = if keep w.w_data then own w in
  let visit_entry entry =
    if not written then visit_committed entry entry.Table.data
    else
      match Ctx.find_write ctx ~table:tname ~key_str:entry.Table.key_str with
      | Some w when not w.w_dead -> (
        match w.w_op with
        | Writeset.Delete -> ()
        | Writeset.Insert | Writeset.Update -> visit_committed entry w.w_data)
      | Some _ | None -> visit_committed entry entry.Table.data
  in
  (* This txn's live writes on [tname], in the write table's order. *)
  let iter_own_writes g =
    if written then
      Row_tbl.iter
        (fun (t, _) w ->
          if String.equal t tname && (not w.w_dead) && w.w_op <> Writeset.Delete then g w)
        ctx.Ctx.writes
  in
  let own_inserts pred =
    iter_own_writes (fun w -> if (not w.w_existed) && pred w then emit_own_insert w)
  in
  let eval_key_exprs exprs =
    Array.mapi
      (fun i e ->
        normalise_key_value
          (Schema.col_ty schema schema.Schema.key_cols.(i))
          (Expr.eval_const ~params e))
      exprs
  in
  match access with
  | Plan.Point exprs -> (
    let key = eval_key_exprs exprs in
    let key_str = Value.encode_key key in
    (* The txn may have inserted this key itself. *)
    match if written then Ctx.find_write ctx ~table:tname ~key_str else None with
    | Some w when (not w.w_dead) && (not w.w_existed) && w.w_op <> Writeset.Delete ->
      emit_own_insert w
    | Some _ | None -> (
      match Table.find_live tbl key_str with
      | Some entry -> visit_entry entry
      | None -> ()))
  | Plan.Prefix exprs ->
    let prefix = eval_key_exprs exprs in
    Table.scan_prefix tbl ~prefix visit_entry;
    own_inserts (fun w ->
        Array.length w.w_key >= Array.length prefix
        &&
        let rec go i =
          i >= Array.length prefix
          || (Value.compare prefix.(i) w.w_key.(i) = 0 && go (i + 1))
        in
        go 0)
  | Plan.Range { lo; hi } ->
    let bound = Option.map (fun e -> [| Expr.eval_const ~params e |]) in
    Table.scan_range tbl ?lo:(bound lo) ?hi:(bound hi) visit_entry;
    own_inserts (fun _ -> true)
  | Plan.Sec_index (iname, exprs) -> (
    let probe = Array.map (fun e -> Expr.eval_const ~params e) exprs in
    List.iter visit_entry (Table.index_lookup tbl ~name:iname ~key:probe);
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
      iter_own_writes (fun w ->
          if indexed w.w_data then
            if not w.w_existed then emit_own_insert w
            else
              match Table.find_live tbl w.w_key_str with
              | Some entry when not (indexed entry.Table.data) ->
                visit_committed entry w.w_data
              | Some _ | None -> ()))
  | Plan.Full ->
    Table.scan tbl ~f:visit_entry;
    own_inserts (fun _ -> true)

(* A WHERE clause as a row filter; no clause keeps every row. *)
let where_pred env ~params = function
  | None -> fun _ -> true
  | Some w -> Expr.bind_pred env ~params w

let record_entry_read record ~table entry =
  record ~table ~key_str:entry.Table.key_str ~header:entry.Table.header

let record_vrow_read record ~table v =
  match v.v_entry with
  | Some entry -> record_entry_read record ~table entry
  | None -> () (* own insert: nothing to validate *)

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

(* Per-group aggregation state; one implicit group when GROUP BY is
   absent. Non-aggregate projections and sort keys are captured at the
   group's first row. *)
type group_state = {
  g_count : int array;
  g_sumf : float array;
  g_sumi : int array;
  g_int_only : bool array;
  g_min : Value.t array;
  g_max : Value.t array;
  g_repr : Value.t array;
  g_sort : (Value.t * Ast.order_dir) list;
}

(* The value COUNT( * ) counts for every row, shared across rows. *)
let count_star = Value.Int 1

(* A projection with its expressions bound. *)
type bound_proj =
  | B_star
  | B_expr of Expr.t
  | B_agg of Ast.agg_fn * Expr.t option

let select ctx (s : Ast.select) ~params =
  let db = Ctx.db ctx in
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
        (tr, on, binding))
      s.join
  in
  (* The scanned side: its row is the argument of every bound
     expression; the outer side of a join is read from [from_binding]. *)
  let inner, env =
    match join_info with
    | None -> (from_binding, [ from_binding ])
    | Some (_, _, jb) -> (jb, [ from_binding; jb ])
  in
  let access =
    Plan.access_path_table from_tbl ~names:(binding_names s.from) s.where
  in
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
  let where_ok = where_pred env ~params s.where in
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
    Option.map (fun (tr, on, jb) -> (tr, Expr.bind_pred env ~params on, jb)) join_info
  in
  (* Collected matches, newest first: projected rows, paired with their
     sort keys only under ORDER BY. *)
  let rows_rev = ref [] in
  let keyed_rev = ref [] in
  let n_projs = List.length s.projs in
  let projs_a = Array.of_list projs in
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
            Array.concat (List.map (fun b -> if b == inner then row else b.Env.row) env)
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
  let sort_keys row = List.map (fun (e, dir) -> (e row, dir)) order_by in
  (* Grouped/aggregated path. *)
  let groups : (Value.t list, group_state) Hashtbl.t = Hashtbl.create 16 in
  let group_order = ref [] in
  let fresh_state ~repr ~sort =
    {
      g_count = Array.make n_projs 0;
      g_sumf = Array.make n_projs 0.0;
      g_sumi = Array.make n_projs 0;
      g_int_only = Array.make n_projs true;
      g_min = Array.make n_projs Value.Null;
      g_max = Array.make n_projs Value.Null;
      g_repr = repr;
      g_sort = sort;
    }
  in
  let new_group row =
    let repr =
      Array.map (function B_expr e -> e row | B_agg _ | B_star -> Value.Null) projs_a
    in
    fresh_state ~repr ~sort:(sort_keys row)
  in
  (* the one group of an aggregate without GROUP BY *)
  let single = ref None in
  let aggregate_row row =
    let st =
      match (group_by, !single) with
      | [], Some st -> st
      | [], None ->
        let st = new_group row in
        single := Some st;
        st
      | _ :: _, _ -> (
        let key = List.map (fun e -> e row) group_by in
        match Hashtbl.find_opt groups key with
        | Some st -> st
        | None ->
          let st = new_group row in
          Hashtbl.replace groups key st;
          group_order := key :: !group_order;
          st)
    in
    for i = 0 to n_projs - 1 do
      match projs_a.(i) with
      | B_agg (fn, arg) -> (
        let v =
          match arg with
          | None -> count_star
          | Some e -> e row
        in
        match (fn, v) with
        | _, Value.Null -> ()
        | Ast.Count, _ -> st.g_count.(i) <- st.g_count.(i) + 1
        | (Ast.Sum | Ast.Avg), Value.Int n ->
          st.g_count.(i) <- st.g_count.(i) + 1;
          st.g_sumf.(i) <- st.g_sumf.(i) +. float_of_int n;
          st.g_sumi.(i) <- st.g_sumi.(i) + n
        | (Ast.Sum | Ast.Avg), Value.Float f ->
          st.g_count.(i) <- st.g_count.(i) + 1;
          st.g_sumf.(i) <- st.g_sumf.(i) +. f;
          st.g_int_only.(i) <- false
        | (Ast.Sum | Ast.Avg), v ->
          raise (Sql_error (Printf.sprintf "SUM/AVG of %s" (Value.type_name v)))
        | Ast.Min, v ->
          if st.g_min.(i) = Value.Null || Value.compare v st.g_min.(i) < 0 then
            st.g_min.(i) <- v
        | Ast.Max, v ->
          if st.g_max.(i) = Value.Null || Value.compare v st.g_max.(i) > 0 then
            st.g_max.(i) <- v)
      | B_star | B_expr _ -> ()
    done
  in
  let handle_match =
    if aggregating then aggregate_row
    else if order_by = [] then fun row -> rows_rev := project row :: !rows_rev
    else fun row -> keyed_rev := (project row, sort_keys row) :: !keyed_rev
  in
  (match join with
  | None ->
    let record = Ctx.distinct_recorder ctx in
    let table = s.from.table in
    visible_rows ctx table access ~params ~keep:where_ok
      ~committed:(fun entry data ->
        record_entry_read record ~table entry;
        handle_match data)
      ~own:(fun w -> handle_match w.w_data)
  | Some (jtr, on, _) ->
    (* Nested loop with the outer row bound once per outer row; the
       inner side is a full scan. An outer row is met once per inner
       match, so reads probe. *)
    let record = Ctx.recorder ctx in
    let jtable = jtr.Ast.table in
    let outer v =
      from_binding.Env.row <- v.v_data;
      visible_rows ctx jtable Plan.Full ~params
        ~keep:(fun jdata -> on jdata && where_ok jdata)
        ~committed:(fun entry jdata ->
          record_vrow_read record ~table:s.from.table v;
          record_entry_read record ~table:jtable entry;
          handle_match jdata)
        ~own:(fun w ->
          record_vrow_read record ~table:s.from.table v;
          handle_match w.w_data)
    in
    visible_rows ctx s.from.table access ~params
      ~keep:(fun _ -> true)
      ~committed:(fun entry data -> outer (committed_vrow entry data))
      ~own:(fun w -> outer (own_vrow w)));
  let columns = List.mapi proj_name s.projs in
  let columns =
    (* Expand star into actual column names. *)
    List.concat_map
      (fun (p, n) ->
        match p with
        | Ast.Star ->
          List.concat_map
            (fun b ->
              Array.to_list
                (Array.map
                   (fun (c : Schema.column) -> c.Schema.name)
                   b.Env.schema.Schema.columns))
            env
        | Ast.Expr_proj _ | Ast.Agg _ -> [ n ])
      (List.combine s.projs columns)
  in
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
  if aggregating then begin
    let row_of (st : group_state) =
      List.mapi
        (fun i p ->
          match p with
          | Ast.Agg (Ast.Count, _, _) -> Value.Int st.g_count.(i)
          | Ast.Agg (Ast.Sum, _, _) ->
            if st.g_count.(i) = 0 then Value.Null
            else if st.g_int_only.(i) then Value.Int st.g_sumi.(i)
            else Value.Float st.g_sumf.(i)
          | Ast.Agg (Ast.Avg, _, _) ->
            if st.g_count.(i) = 0 then Value.Null
            else Value.Float (st.g_sumf.(i) /. float_of_int st.g_count.(i))
          | Ast.Agg (Ast.Min, _, _) -> st.g_min.(i)
          | Ast.Agg (Ast.Max, _, _) -> st.g_max.(i)
          | Ast.Star ->
            (* rejected up front ("mixing aggregates and plain
               projections needs GROUP BY"); kept as a query error *)
            raise (Sql_error "SELECT * cannot be combined with aggregates")
          | Ast.Expr_proj _ -> st.g_repr.(i))
        s.projs
      |> Array.of_list
    in
    let rows =
      match !single with
      | Some st -> [ (row_of st, st.g_sort) ]
      | None when s.group_by = [] ->
        (* With no GROUP BY and no matches, SQL still yields one row. *)
        [ (row_of (fresh_state ~repr:(Array.make n_projs Value.Null) ~sort:[]), []) ]
      | None ->
        List.rev_map
          (fun key ->
            let st = Hashtbl.find groups key in
            (row_of st, st.g_sort))
          !group_order
    in
    { columns; rows = order_and_limit rows; affected = 0 }
  end
  else if s.order_by = [] then
    { columns; rows = limit (List.rev !rows_rev); affected = 0 }
  else { columns; rows = order_and_limit (List.rev !keyed_rev); affected = 0 }

(* --- INSERT --- *)

let insert ctx ~table ~cols ~rows ~params =
  let tbl = get_table (Ctx.db ctx) table in
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
  let n = ref 0 in
  List.iter
    (fun exprs ->
      if List.length exprs <> Array.length col_map then
        raise (Sql_error "INSERT arity mismatch");
      let row = Array.make arity Value.Null in
      List.iteri
        (fun i e -> row.(col_map.(i)) <- Expr.eval_const ~params e)
        exprs;
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
  { columns = []; rows = []; affected = !n }

(* --- UPDATE / DELETE --- *)

let target_binding tbl table =
  { Env.binding_name = table; schema = Table.schema tbl; row = [||] }

let collect_targets ctx tbl binding where ~params =
  let table = binding.Env.binding_name in
  let access = Plan.access_path_table tbl ~names:[ table ] where in
  let where_ok = where_pred [ binding ] ~params where in
  let acc = ref [] in
  visible_rows ctx table access ~params ~keep:where_ok
    ~committed:(fun entry data -> acc := committed_vrow entry data :: !acc)
    ~own:(fun w -> acc := own_vrow w :: !acc);
  List.rev !acc

(* A target row's write: [v] is backed by a committed row unless this
   transaction inserted it. *)
let write_target ctx ~table v ?cols row =
  Ctx.write ctx ~table ~key:v.v_key ~key_str:v.v_key_str
    ~existed:(v.v_entry <> None) ?cols row

let update ctx ~table ~sets ~where ~params =
  let tbl = get_table (Ctx.db ctx) table in
  let binding = target_binding tbl table in
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
  let targets = collect_targets ctx tbl binding where ~params in
  (* The SET list names the touched columns directly; a set wider than
     the maskable range degrades to the whole-row mask. *)
  let cols =
    if Ctx.track_cols ctx then
      match set_indices with
      | [] -> Gg_crdt.Column.full
      | (i, _) :: rest ->
        List.fold_left
          (fun acc (j, _) ->
            Gg_crdt.Column.union acc (Gg_crdt.Column.of_index j))
          (Gg_crdt.Column.of_index i) rest
    else Gg_crdt.Column.full
  in
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
  { columns = []; rows = []; affected = List.length targets }

let delete ctx ~table ~where ~params =
  let tbl = get_table (Ctx.db ctx) table in
  let targets = collect_targets ctx tbl (target_binding tbl table) where ~params in
  let record = Ctx.distinct_recorder ctx in
  List.iter
    (fun v ->
      record_vrow_read record ~table v;
      write_target ctx ~table v None)
    targets;
  { columns = []; rows = []; affected = List.length targets }

(* --- entry points --- *)

let exec ctx stmt ~params =
  try
    match stmt with
    | Ast.Select s -> Ok (select ctx s ~params)
    | Ast.Insert { table; cols; rows } -> Ok (insert ctx ~table ~cols ~rows ~params)
    | Ast.Update { table; sets; where } -> Ok (update ctx ~table ~sets ~where ~params)
    | Ast.Delete { table; where } -> Ok (delete ctx ~table ~where ~params)
    | Ast.Create_table { name; cols; key } ->
      let columns =
        List.map (fun (n, ty) -> { Schema.name = n; ty }) cols
      in
      let key =
        match (key, cols) with
        | [], [] -> raise (Sql_error "CREATE TABLE needs at least one column")
        | [], (first, _) :: _ -> [ first ]
        | _ :: _, _ -> key
      in
      ignore (Db.create_table (Ctx.db ctx) ~name ~columns ~key);
      Ok { columns = []; rows = []; affected = 0 }
    | Ast.Create_index { name; table; cols } ->
      let tbl = get_table (Ctx.db ctx) table in
      Table.create_index tbl ~name ~cols;
      Ok { columns = []; rows = []; affected = 0 }
  with
  | Sql_error m -> Error m
  | Invalid_argument m -> Error m

let exec_sql ctx sql ~params =
  match Parser.parse_result sql with
  | Error m -> Error m
  | Ok stmt -> exec ctx stmt ~params
