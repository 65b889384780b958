(* Tests for the SQL engine: lexer, parser, planner, executor semantics,
   read/write set accumulation, read-your-writes. *)

open Gg_storage
open Gg_sql

let v_int i = Value.Int i
let v_str s = Value.Str s

let fixture () =
  let db = Db.create () in
  let accounts =
    Db.create_table db ~name:"accounts"
      ~columns:
        [
          { Schema.name = "id"; ty = Schema.TInt };
          { name = "owner"; ty = TStr };
          { name = "balance"; ty = TInt };
          { name = "region"; ty = TStr };
        ]
      ~key:[ "id" ]
  in
  List.iter (Table.load accounts)
    [
      [| v_int 1; v_str "alice"; v_int 100; v_str "north" |];
      [| v_int 2; v_str "bob"; v_int 200; v_str "south" |];
      [| v_int 3; v_str "carol"; v_int 300; v_str "north" |];
      [| v_int 4; v_str "dave"; v_int 400; v_str "east" |];
    ];
  let regions =
    Db.create_table db ~name:"regions"
      ~columns:
        [ { Schema.name = "rname"; ty = Schema.TStr }; { name = "tz"; ty = TInt } ]
      ~key:[ "rname" ]
  in
  List.iter (Table.load regions)
    [
      [| v_str "north"; v_int 8 |];
      [| v_str "south"; v_int 7 |];
      [| v_str "east"; v_int 9 |];
    ];
  db

let exec_ok ctx sql ?(params = [||]) () =
  match Executor.exec_sql ctx sql ~params with
  | Ok r -> r
  | Error m -> Alcotest.failf "unexpected SQL error on %S: %s" sql m

let contains_sub hay needle =
  let ln = String.length needle and lh = String.length hay in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

let exec_err ctx sql ?(params = [||]) () =
  match Executor.exec_sql ctx sql ~params with
  | Ok _ -> Alcotest.failf "expected error on %S" sql
  | Error m -> m

(* --- Lexer --- *)

let test_lexer_basic () =
  let toks = Lexer.tokenize "SELECT a, b FROM t WHERE x <= 'it''s' AND y <> 3.5" in
  Alcotest.(check int) "count" 15 (List.length toks);
  Alcotest.(check bool) "keywords lowercased" true
    (List.exists (fun t -> t = Lexer.Ident "select") toks);
  Alcotest.(check bool) "string escape" true
    (List.exists (fun t -> t = Lexer.Str_lit "it's") toks);
  Alcotest.(check bool) "float" true
    (List.exists (fun t -> t = Lexer.Float_lit 3.5) toks)

let test_lexer_params () =
  let toks = Lexer.tokenize "? ?" in
  Alcotest.(check int) "two params + eof" 3 (List.length toks)

let test_lexer_error () =
  Alcotest.(check bool) "bad char" true
    (try
       ignore (Lexer.tokenize "select @");
       false
     with Lexer.Lex_error _ -> true)

(* --- Parser --- *)

let test_parse_select () =
  match Parser.parse "SELECT id, balance FROM accounts WHERE id = 1" with
  | Ast.Select s ->
    Alcotest.(check int) "projs" 2 (List.length s.projs);
    Alcotest.(check string) "table" "accounts" s.from.table;
    Alcotest.(check bool) "where" true (s.where <> None)
  | _ -> Alcotest.fail "not a select"

let test_parse_order_limit () =
  match Parser.parse "SELECT * FROM t ORDER BY a DESC, b LIMIT 5" with
  | Ast.Select s ->
    Alcotest.(check int) "order items" 2 (List.length s.order_by);
    Alcotest.(check bool) "limit" true (s.limit = Some 5);
    (match s.order_by with
    | (_, Ast.Desc) :: (_, Ast.Asc) :: _ -> ()
    | _ -> Alcotest.fail "directions")
  | _ -> Alcotest.fail "not a select"

let test_parse_join () =
  match
    Parser.parse
      "SELECT a.id FROM accounts a JOIN regions r ON a.region = r.rname"
  with
  | Ast.Select s ->
    Alcotest.(check bool) "join present" true (s.join <> None);
    Alcotest.(check bool) "alias" true (s.from.alias = Some "a")
  | _ -> Alcotest.fail "not a select"

let test_parse_insert () =
  match Parser.parse "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')" with
  | Ast.Insert { rows; cols; _ } ->
    Alcotest.(check int) "rows" 2 (List.length rows);
    Alcotest.(check bool) "cols" true (cols = Some [ "a"; "b" ])
  | _ -> Alcotest.fail "not an insert"

let test_parse_update_delete () =
  (match Parser.parse "UPDATE t SET a = a + 1, b = ? WHERE k = 3" with
  | Ast.Update { sets; where; _ } ->
    Alcotest.(check int) "sets" 2 (List.length sets);
    Alcotest.(check bool) "where" true (where <> None)
  | _ -> Alcotest.fail "not an update");
  match Parser.parse "DELETE FROM t WHERE k = 1 OR k = 2" with
  | Ast.Delete _ -> ()
  | _ -> Alcotest.fail "not a delete"

let test_parse_create () =
  match
    Parser.parse
      "CREATE TABLE users (id INT, name VARCHAR(20), score FLOAT, PRIMARY KEY (id))"
  with
  | Ast.Create_table { name; cols; key } ->
    Alcotest.(check string) "name" "users" name;
    Alcotest.(check int) "cols" 3 (List.length cols);
    Alcotest.(check (list string)) "key" [ "id" ] key
  | _ -> Alcotest.fail "not a create"

let test_parse_params_numbering () =
  match Parser.parse "SELECT * FROM t WHERE a = ? AND b = ?" with
  | Ast.Select { where = Some w; _ } ->
    let rec params acc = function
      | Ast.Param i -> i :: acc
      | Ast.Binop (_, a, b) -> params (params acc a) b
      | Ast.Unop (_, e) -> params acc e
      | Ast.In_list (e, items) -> List.fold_left params (params acc e) items
      | Ast.Between (e, lo, hi) -> params (params (params acc e) lo) hi
      | Ast.Like (e, p) -> params (params acc e) p
      | Ast.Const _ | Ast.Col _ -> acc
    in
    Alcotest.(check (list int)) "0-based in order" [ 0; 1 ]
      (List.sort compare (params [] w))
  | _ -> Alcotest.fail "bad parse"

let test_parse_errors () =
  Alcotest.(check bool) "garbage" true (Result.is_error (Parser.parse_result "FOO BAR"));
  Alcotest.(check bool) "trailing" true
    (Result.is_error (Parser.parse_result "SELECT * FROM t WHERE"));
  Alcotest.(check bool) "unbalanced" true
    (Result.is_error (Parser.parse_result "SELECT (a FROM t"))

(* --- Plan --- *)

let access_of sql =
  let db = fixture () in
  let tbl = Db.get_table_exn db "accounts" in
  match Parser.parse sql with
  | Ast.Select s -> Plan.access_path (Table.schema tbl) ~names:[ "accounts" ] s.where
  | _ -> Alcotest.fail "expected select"

let test_plan_point () =
  match access_of "SELECT * FROM accounts WHERE id = 3" with
  | Plan.Point _ -> ()
  | a -> Alcotest.failf "expected point, got %s" (Plan.describe a)

let test_plan_point_param () =
  match access_of "SELECT * FROM accounts WHERE id = ? AND balance > 10" with
  | Plan.Point _ -> ()
  | a -> Alcotest.failf "expected point, got %s" (Plan.describe a)

let test_plan_full () =
  (match access_of "SELECT * FROM accounts WHERE balance = 100" with
  | Plan.Full -> ()
  | a -> Alcotest.failf "expected full, got %s" (Plan.describe a));
  match access_of "SELECT * FROM accounts WHERE id > 2" with
  | Plan.Range { lo = Some _; hi = None } -> ()
  | a -> Alcotest.failf "expected range, got %s" (Plan.describe a)

let test_plan_range () =
  let check sql expected =
    Alcotest.(check string) sql expected (Plan.describe (access_of sql))
  in
  check "SELECT * FROM accounts WHERE id > 2" "range(lo..)";
  check "SELECT * FROM accounts WHERE id BETWEEN ? AND ?" "range(lo..hi)";
  check "SELECT * FROM accounts WHERE 3 >= id" "range(..hi)";
  check "SELECT * FROM accounts WHERE id >= 1 AND balance > 0 AND id < 9"
    "range(lo..hi)";
  check "SELECT * FROM accounts WHERE accounts.id < 4" "range(..hi)";
  (* point beats range; column bounds, other qualifiers and OR do not count *)
  check "SELECT * FROM accounts WHERE id > 2 AND id = 3" "point";
  check "SELECT * FROM accounts WHERE id > balance" "full-scan";
  check "SELECT * FROM accounts WHERE r.id > 2" "full-scan";
  check "SELECT * FROM accounts WHERE id > 2 OR id < 1" "full-scan";
  check "SELECT * FROM accounts WHERE NOT NOT (id > 2)" "full-scan";
  check "SELECT * FROM accounts WHERE balance BETWEEN 1 AND 2" "full-scan"

let test_select_range () =
  let ctx = Executor.Ctx.create (fixture ()) in
  let ids sql params =
    (exec_ok ctx sql ~params ()).rows
    |> List.map (function [| Value.Int i |] -> i | _ -> Alcotest.fail "row")
  in
  let between = "SELECT id FROM accounts WHERE id BETWEEN ? AND ?" in
  Alcotest.(check (list int)) "between" [ 2; 3 ] (ids between [| v_int 2; v_int 3 |]);
  Alcotest.(check (list int)) "reversed bounds" [] (ids between [| v_int 3; v_int 2 |]);
  Alcotest.(check (list int)) "NULL bound" [] (ids between [| Value.Null; v_int 3 |]);
  Alcotest.(check (list int)) "float bounds" [ 2; 3 ]
    (ids between [| Value.Float 1.5; Value.Float 3.0 |]);
  Alcotest.(check (list int)) "strict" [ 3; 4 ]
    (ids "SELECT id FROM accounts WHERE id > 2" [||]);
  Alcotest.(check (list int)) "column on the right" [ 1 ]
    (ids "SELECT id FROM accounts WHERE 2 > id" [||]);
  (* own inserts are visited after the committed range, as on a full scan *)
  let ctx = Executor.Ctx.create ~record_reads:true (fixture ()) in
  let ids sql params =
    (exec_ok ctx sql ~params ()).rows
    |> List.map (function [| Value.Int i |] -> i | _ -> Alcotest.fail "row")
  in
  ignore (exec_ok ctx "INSERT INTO accounts VALUES (0, 'zed', 5, 'west')" ());
  ignore (exec_ok ctx "DELETE FROM accounts WHERE id = 2" ());
  Alcotest.(check (list int)) "overlay" [ 1; 3; 0 ]
    (ids "SELECT id FROM accounts WHERE id <= 3" [||]);
  Alcotest.(check (list string)) "reads: the delete's row, then the matches"
    (List.map (fun i -> Value.encode_key [| v_int i |]) [ 2; 1; 3 ])
    (List.map (fun r -> r.Executor.r_key_str) (Executor.Ctx.read_set ctx))

let test_plan_no_col_equality () =
  (* id = id is not an index condition. *)
  match access_of "SELECT * FROM accounts WHERE id = id" with
  | Plan.Full -> ()
  | a -> Alcotest.failf "expected full, got %s" (Plan.describe a)

(* --- Executor: SELECT --- *)

let test_select_point () =
  let ctx = Executor.Ctx.create (fixture ()) in
  let r = exec_ok ctx "SELECT owner, balance FROM accounts WHERE id = 2" () in
  Alcotest.(check int) "one row" 1 (List.length r.rows);
  match r.rows with
  | [ [| Value.Str "bob"; Value.Int 200 |] ] -> ()
  | _ -> Alcotest.fail "wrong row"

let test_select_filter () =
  let ctx = Executor.Ctx.create (fixture ()) in
  let r = exec_ok ctx "SELECT id FROM accounts WHERE balance >= 200 AND region = 'north'" () in
  Alcotest.(check int) "one row" 1 (List.length r.rows);
  match r.rows with
  | [ [| Value.Int 3 |] ] -> ()
  | _ -> Alcotest.fail "wrong row"

let test_select_order_by_limit () =
  let ctx = Executor.Ctx.create (fixture ()) in
  let r = exec_ok ctx "SELECT id FROM accounts ORDER BY balance DESC LIMIT 2" () in
  match r.rows with
  | [ [| Value.Int 4 |]; [| Value.Int 3 |] ] -> ()
  | _ -> Alcotest.fail "wrong order/limit"

let test_select_star_columns () =
  let ctx = Executor.Ctx.create (fixture ()) in
  let r = exec_ok ctx "SELECT * FROM accounts WHERE id = 1" () in
  Alcotest.(check (list string)) "columns" [ "id"; "owner"; "balance"; "region" ] r.columns

let test_select_aggregates () =
  let ctx = Executor.Ctx.create (fixture ()) in
  let r =
    exec_ok ctx
      "SELECT COUNT(*), SUM(balance), MIN(balance), MAX(balance), AVG(balance) FROM accounts"
      ()
  in
  match r.rows with
  | [ [| Value.Int 4; Value.Int 1000; Value.Int 100; Value.Int 400; Value.Float avg |] ] ->
    Alcotest.(check (float 1e-9)) "avg" 250.0 avg
  | _ -> Alcotest.fail "wrong aggregates"

let test_select_agg_with_filter () =
  let ctx = Executor.Ctx.create (fixture ()) in
  let r = exec_ok ctx "SELECT COUNT(*) FROM accounts WHERE region = 'north'" () in
  match r.rows with
  | [ [| Value.Int 2 |] ] -> ()
  | _ -> Alcotest.fail "wrong count"

let test_select_join () =
  let ctx = Executor.Ctx.create (fixture ()) in
  let r =
    exec_ok ctx
      "SELECT a.owner, r.tz FROM accounts a JOIN regions r ON a.region = r.rname WHERE a.id = 1"
      ()
  in
  match r.rows with
  | [ [| Value.Str "alice"; Value.Int 8 |] ] -> ()
  | _ -> Alcotest.fail "wrong join result"

let test_select_join_cardinality () =
  let ctx = Executor.Ctx.create (fixture ()) in
  let r =
    exec_ok ctx
      "SELECT a.id FROM accounts a JOIN regions r ON a.region = r.rname" ()
  in
  Alcotest.(check int) "all accounts matched" 4 (List.length r.rows)

let test_select_params () =
  let ctx = Executor.Ctx.create (fixture ()) in
  let r =
    exec_ok ctx "SELECT owner FROM accounts WHERE id = ?" ~params:[| v_int 3 |] ()
  in
  match r.rows with
  | [ [| Value.Str "carol" |] ] -> ()
  | _ -> Alcotest.fail "param binding"

let test_select_missing_param () =
  let ctx = Executor.Ctx.create (fixture ()) in
  let m = exec_err ctx "SELECT * FROM accounts WHERE id = ?" () in
  Alcotest.(check bool) "mentions parameter" true
    (String.length m > 0)

let test_select_group_by () =
  let ctx = Executor.Ctx.create (fixture ()) in
  let r =
    exec_ok ctx
      "SELECT region, COUNT(*), SUM(balance) FROM accounts GROUP BY region ORDER BY region"
      ()
  in
  Alcotest.(check int) "three groups" 3 (List.length r.rows);
  (match r.rows with
  | [| Value.Str "east"; Value.Int 1; Value.Int 400 |]
    :: [| Value.Str "north"; Value.Int 2; Value.Int 400 |]
    :: [| Value.Str "south"; Value.Int 1; Value.Int 200 |] :: [] -> ()
  | _ -> Alcotest.fail "wrong groups")

let test_select_group_by_no_agg () =
  (* GROUP BY without aggregates deduplicates. *)
  let ctx = Executor.Ctx.create (fixture ()) in
  let r = exec_ok ctx "SELECT region FROM accounts GROUP BY region" () in
  Alcotest.(check int) "distinct regions" 3 (List.length r.rows)

let test_select_agg_empty_table () =
  (* No GROUP BY, no matches: SQL still returns a single row. *)
  let ctx = Executor.Ctx.create (fixture ()) in
  let r = exec_ok ctx "SELECT COUNT(*), SUM(balance) FROM accounts WHERE id = 999" () in
  match r.rows with
  | [ [| Value.Int 0; Value.Null |] ] -> ()
  | _ -> Alcotest.fail "expected one zero row"

let test_agg_misuse_is_error_not_crash () =
  (* Malformed aggregate queries must surface as [Error _] from
     [exec_sql] — these paths were historically [assert false]. *)
  let ctx = Executor.Ctx.create (fixture ()) in
  let m = exec_err ctx "SELECT *, COUNT(*) FROM accounts" () in
  Alcotest.(check bool) "star+agg names aggregates" true
    (contains_sub m "aggregate");
  let m = exec_err ctx "SELECT owner, COUNT(*) FROM accounts" () in
  Alcotest.(check bool) "plain+agg without GROUP BY rejected" true
    (contains_sub m "GROUP BY" || contains_sub m "aggregate");
  (* The expression evaluator's misuse paths are proper errors too. *)
  let m = exec_err ctx "SELECT id + owner FROM accounts" () in
  Alcotest.(check bool) "non-numeric arithmetic rejected" true
    (contains_sub m "arithmetic");
  let m = exec_err ctx "SELECT balance / 0 FROM accounts" () in
  Alcotest.(check bool) "division by zero rejected" true
    (contains_sub m "division")

let test_select_in_list () =
  let ctx = Executor.Ctx.create (fixture ()) in
  let r = exec_ok ctx "SELECT id FROM accounts WHERE id IN (1, 3, 99) ORDER BY id" () in
  (match r.rows with
  | [ [| Value.Int 1 |]; [| Value.Int 3 |] ] -> ()
  | _ -> Alcotest.fail "IN list");
  let r = exec_ok ctx "SELECT id FROM accounts WHERE region NOT IN ('north') ORDER BY id" () in
  Alcotest.(check int) "not in" 2 (List.length r.rows)

let test_select_between () =
  let ctx = Executor.Ctx.create (fixture ()) in
  let r =
    exec_ok ctx "SELECT id FROM accounts WHERE balance BETWEEN 150 AND 350 ORDER BY id" ()
  in
  match r.rows with
  | [ [| Value.Int 2 |]; [| Value.Int 3 |] ] -> ()
  | _ -> Alcotest.fail "BETWEEN"

let test_select_like () =
  let ctx = Executor.Ctx.create (fixture ()) in
  let r = exec_ok ctx "SELECT owner FROM accounts WHERE owner LIKE 'a%'" () in
  (match r.rows with
  | [ [| Value.Str "alice" |] ] -> ()
  | _ -> Alcotest.fail "LIKE prefix");
  let r = exec_ok ctx "SELECT owner FROM accounts WHERE owner LIKE '%a%' ORDER BY owner" () in
  Alcotest.(check int) "contains a" 3 (List.length r.rows);
  let r = exec_ok ctx "SELECT owner FROM accounts WHERE owner LIKE '_ob'" () in
  (match r.rows with
  | [ [| Value.Str "bob" |] ] -> ()
  | _ -> Alcotest.fail "LIKE underscore");
  let m = exec_err ctx "SELECT owner FROM accounts WHERE balance LIKE 'x'" () in
  Alcotest.(check bool) "type error" true (contains_sub m "LIKE")

let test_select_expression_projs () =
  let ctx = Executor.Ctx.create (fixture ()) in
  let r = exec_ok ctx "SELECT balance * 2 + 1 AS x FROM accounts WHERE id = 1" () in
  Alcotest.(check (list string)) "alias" [ "x" ] r.columns;
  match r.rows with
  | [ [| Value.Int 201 |] ] -> ()
  | _ -> Alcotest.fail "arithmetic"

(* --- Executor: reads --- *)

let test_read_set_recorded () =
  let ctx = Executor.Ctx.create ~record_reads:true (fixture ()) in
  ignore (exec_ok ctx "SELECT * FROM accounts WHERE id = 1" ());
  ignore (exec_ok ctx "SELECT * FROM accounts WHERE id = 2" ());
  let rs = Executor.Ctx.read_set ctx in
  Alcotest.(check int) "two reads" 2 (List.length rs);
  Alcotest.(check bool) "tables" true
    (List.for_all (fun r -> r.Executor.r_table = "accounts") rs)

let test_read_set_first_observation () =
  let ctx = Executor.Ctx.create ~record_reads:true (fixture ()) in
  ignore (exec_ok ctx "SELECT * FROM accounts WHERE id = 1" ());
  ignore (exec_ok ctx "SELECT * FROM accounts WHERE id = 1" ());
  Alcotest.(check int) "dedup" 1 (List.length (Executor.Ctx.read_set ctx))

let test_scan_records_matching_only () =
  let ctx = Executor.Ctx.create ~record_reads:true (fixture ()) in
  ignore (exec_ok ctx "SELECT * FROM accounts WHERE balance > 250" ());
  Alcotest.(check int) "only matching rows" 2
    (List.length (Executor.Ctx.read_set ctx))

(* --- Executor: writes --- *)

let test_update_buffered () =
  let db = fixture () in
  let ctx = Executor.Ctx.create db in
  let r = exec_ok ctx "UPDATE accounts SET balance = balance + 50 WHERE id = 1" () in
  Alcotest.(check int) "one affected" 1 r.affected;
  (* The base table is untouched until write-back. *)
  let tbl = Db.get_table_exn db "accounts" in
  let e = Option.get (Table.find_live tbl (Value.encode_key [| v_int 1 |])) in
  Alcotest.(check bool) "base unchanged" true (Value.equal e.Table.data.(2) (v_int 100));
  (* But the txn sees its own write. *)
  let r = exec_ok ctx "SELECT balance FROM accounts WHERE id = 1" () in
  (match r.rows with
  | [ [| Value.Int 150 |] ] -> ()
  | _ -> Alcotest.fail "read-your-writes");
  let ws = Executor.Ctx.writeset_records ctx in
  Alcotest.(check int) "one record" 1 (List.length ws);
  match ws with
  | [ { Gg_crdt.Writeset.op = Gg_crdt.Writeset.Update; data; _ } ] ->
    Alcotest.(check bool) "new balance" true (Value.equal data.(2) (v_int 150))
  | _ -> Alcotest.fail "bad writeset"

let test_update_twice_coalesces () =
  let ctx = Executor.Ctx.create (fixture ()) in
  ignore (exec_ok ctx "UPDATE accounts SET balance = 1 WHERE id = 1" ());
  ignore (exec_ok ctx "UPDATE accounts SET balance = 2 WHERE id = 1" ());
  let ws = Executor.Ctx.writeset_records ctx in
  Alcotest.(check int) "coalesced" 1 (List.length ws);
  match ws with
  | [ { Gg_crdt.Writeset.data; _ } ] ->
    Alcotest.(check bool) "last value" true (Value.equal data.(2) (v_int 2))
  | _ -> Alcotest.fail "bad writeset"

let test_update_key_col_rejected () =
  let ctx = Executor.Ctx.create (fixture ()) in
  let m = exec_err ctx "UPDATE accounts SET id = 9 WHERE id = 1" () in
  Alcotest.(check bool) "mentions key" true (contains_sub m "key")

let test_insert_visible_to_self () =
  let ctx = Executor.Ctx.create (fixture ()) in
  ignore
    (exec_ok ctx "INSERT INTO accounts VALUES (10, 'eve', 500, 'west')" ());
  let r = exec_ok ctx "SELECT owner FROM accounts WHERE id = 10" () in
  (match r.rows with
  | [ [| Value.Str "eve" |] ] -> ()
  | _ -> Alcotest.fail "insert not visible");
  (* Visible in scans too. *)
  let r = exec_ok ctx "SELECT COUNT(*) FROM accounts" () in
  match r.rows with
  | [ [| Value.Int 5 |] ] -> ()
  | _ -> Alcotest.fail "scan misses insert"

let test_insert_duplicate () =
  let ctx = Executor.Ctx.create (fixture ()) in
  let m = exec_err ctx "INSERT INTO accounts VALUES (1, 'dup', 0, 'x')" () in
  Alcotest.(check bool) "duplicate error" true (contains_sub m "duplicate")

let test_insert_with_columns () =
  let ctx = Executor.Ctx.create (fixture ()) in
  ignore
    (exec_ok ctx "INSERT INTO accounts (id, owner, balance, region) VALUES (?, ?, ?, ?)"
       ~params:[| v_int 11; v_str "frank"; v_int 5; v_str "west" |]
       ());
  let ws = Executor.Ctx.writeset_records ctx in
  Alcotest.(check int) "record" 1 (List.length ws)

let test_delete_then_scan () =
  let ctx = Executor.Ctx.create (fixture ()) in
  let r = exec_ok ctx "DELETE FROM accounts WHERE region = 'north'" () in
  Alcotest.(check int) "two deleted" 2 r.affected;
  let r = exec_ok ctx "SELECT COUNT(*) FROM accounts" () in
  (match r.rows with
  | [ [| Value.Int 2 |] ] -> ()
  | _ -> Alcotest.fail "delete not visible");
  let ws = Executor.Ctx.writeset_records ctx in
  Alcotest.(check int) "two delete records" 2 (List.length ws);
  Alcotest.(check bool) "ops are delete" true
    (List.for_all (fun r -> r.Gg_crdt.Writeset.op = Gg_crdt.Writeset.Delete) ws)

let test_insert_then_delete_cancels () =
  let ctx = Executor.Ctx.create (fixture ()) in
  ignore (exec_ok ctx "INSERT INTO accounts VALUES (20, 'tmp', 0, 'x')" ());
  ignore (exec_ok ctx "DELETE FROM accounts WHERE id = 20" ());
  Alcotest.(check int) "no net writes" 0
    (List.length (Executor.Ctx.writeset_records ctx));
  Alcotest.(check bool) "has_writes false" false (Executor.Ctx.has_writes ctx)

let test_update_then_delete () =
  let ctx = Executor.Ctx.create (fixture ()) in
  ignore (exec_ok ctx "UPDATE accounts SET balance = 5 WHERE id = 1" ());
  ignore (exec_ok ctx "DELETE FROM accounts WHERE id = 1" ());
  match Executor.Ctx.writeset_records ctx with
  | [ { Gg_crdt.Writeset.op = Gg_crdt.Writeset.Delete; _ } ] -> ()
  | _ -> Alcotest.fail "should collapse to one delete"

let test_create_index_and_probe () =
  let db = fixture () in
  let ctx = Executor.Ctx.create db in
  ignore (exec_ok ctx "CREATE INDEX accounts_by_region ON accounts (region)" ());
  (* planner picks the index *)
  let tbl = Db.get_table_exn db "accounts" in
  (match
     Parser.parse "SELECT id FROM accounts WHERE region = 'north'"
   with
  | Ast.Select s -> (
    match Plan.access_path_table tbl ~names:[ "accounts" ] s.where with
    | Plan.Sec_index ("accounts_by_region", _) -> ()
    | a -> Alcotest.failf "expected index probe, got %s" (Plan.describe a))
  | _ -> Alcotest.fail "parse");
  let r = exec_ok ctx "SELECT id FROM accounts WHERE region = 'north' ORDER BY id" () in
  (match r.rows with
  | [ [| Value.Int 1 |]; [| Value.Int 3 |] ] -> ()
  | _ -> Alcotest.fail "index probe results");
  (* updates keep the index fresh through the OCC write path: here just
     check read-your-writes via the probe *)
  ignore (exec_ok ctx "INSERT INTO accounts VALUES (7, 'gus', 70, 'north')" ());
  let r = exec_ok ctx "SELECT COUNT(*) FROM accounts WHERE region = 'north'" () in
  match r.rows with
  | [ [| Value.Int 3 |] ] -> ()
  | _ -> Alcotest.fail "own insert visible through index path"

let test_select_range_composite_key () =
  let ctx = Executor.Ctx.create (Db.create ()) in
  ignore (exec_ok ctx "CREATE TABLE stock (w INT, i INT, qty INT, PRIMARY KEY (w, i))" ());
  let tbl = Db.get_table_exn (Executor.Ctx.db ctx) "stock" in
  for w = 1 to 4 do
    for i = 1 to 3 do
      Table.load tbl [| v_int w; v_int i; v_int ((10 * w) + i) |]
    done
  done;
  let r = exec_ok ctx "SELECT COUNT(*), SUM(qty) FROM stock WHERE w BETWEEN 2 AND 3" () in
  match r.rows with
  | [ [| Value.Int 6; Value.Int 162 |] ] -> ()
  | _ -> Alcotest.fail "leading-column range on a two-column key"

let test_index_sees_own_update () =
  let ctx = Executor.Ctx.create (fixture ()) in
  ignore (exec_ok ctx "CREATE INDEX accounts_by_region ON accounts (region)" ());
  ignore (exec_ok ctx "UPDATE accounts SET region = 'north' WHERE id = 2" ());
  let r = exec_ok ctx "SELECT COUNT(*) FROM accounts WHERE region = 'north'" () in
  (match r.rows with
  | [ [| Value.Int 3 |] ] -> ()
  | _ -> Alcotest.fail "row updated onto the probed key is visible");
  (* and one updated off the probed key is not *)
  ignore (exec_ok ctx "UPDATE accounts SET region = 'west' WHERE id = 1" ());
  let r = exec_ok ctx "SELECT id FROM accounts WHERE region = 'north' ORDER BY id" () in
  match r.rows with
  | [ [| Value.Int 2 |]; [| Value.Int 3 |] ] -> ()
  | _ -> Alcotest.fail "row updated off the probed key is hidden"

let test_key_probe_numeric_types () =
  let db = fixture () in
  let ctx = Executor.Ctx.create db in
  let owners sql =
    (exec_ok ctx sql ()).rows
    |> List.map (function [| Value.Str o |] -> o | _ -> Alcotest.fail "row")
  in
  Alcotest.(check (list string)) "integral float on an int key" [ "carol" ]
    (owners "SELECT owner FROM accounts WHERE id = 3.0");
  Alcotest.(check (list string)) "non-integral float" []
    (owners "SELECT owner FROM accounts WHERE id = 2.5");
  ignore (exec_ok ctx "INSERT INTO accounts VALUES (9, 'ivy', 1, 'west')" ());
  Alcotest.(check (list string)) "own insert by float probe" [ "ivy" ]
    (owners "SELECT owner FROM accounts WHERE id = 9.0");
  ignore (exec_ok ctx "CREATE TABLE prices (p FLOAT, label STRING, PRIMARY KEY (p))" ());
  Table.load (Db.get_table_exn db "prices") [| Value.Float 2.0; v_str "two" |];
  let r = exec_ok ctx "SELECT label FROM prices WHERE p = 2" () in
  match r.rows with
  | [ [| Value.Str "two" |] ] -> ()
  | _ -> Alcotest.fail "int probe on a float key"

let test_bind_time_errors () =
  let ctx = Executor.Ctx.create (fixture ()) in
  (* no row is visited, yet the unknown column is reported *)
  let m = exec_err ctx "SELECT nope FROM accounts WHERE id = 999" () in
  Alcotest.(check bool) "unknown column" true (contains_sub m "nope");
  let m = exec_err ctx "SELECT id FROM accounts WHERE id = 999 ORDER BY nope" () in
  Alcotest.(check bool) "unknown sort key" true (contains_sub m "nope");
  let m = exec_err ctx "UPDATE accounts SET balance = nope WHERE id = 999" () in
  Alcotest.(check bool) "unknown SET operand" true (contains_sub m "nope");
  let m =
    exec_err ctx "SELECT id FROM accounts a JOIN regions r ON a.region = r.rname WHERE x.id = 1"
      ()
  in
  Alcotest.(check bool) "unknown qualifier" true (contains_sub m "x");
  (* a missing parameter still fails only when evaluated *)
  let r = exec_ok ctx "SELECT id FROM accounts WHERE id = 999 AND balance = ?" () in
  Alcotest.(check int) "no rows" 0 (List.length r.rows)

let test_create_table_without_columns () =
  let ctx = Executor.Ctx.create (Db.create ()) in
  let m = exec_err ctx "CREATE TABLE t (PRIMARY KEY (k))" () in
  Alcotest.(check bool) "names the problem" true (contains_sub m "column")

let test_create_table_dml () =
  let db = Db.create () in
  let ctx = Executor.Ctx.create db in
  ignore (exec_ok ctx "CREATE TABLE t (k INT, v STRING, PRIMARY KEY (k))" ());
  ignore (exec_ok ctx "INSERT INTO t VALUES (1, 'one')" ());
  let r = exec_ok ctx "SELECT v FROM t WHERE k = 1" () in
  match r.rows with
  | [ [| Value.Str "one" |] ] -> ()
  | _ -> Alcotest.fail "create+insert+select"

let test_type_errors () =
  let ctx = Executor.Ctx.create (fixture ()) in
  Alcotest.(check bool) "insert type error" true
    (String.length (exec_err ctx "INSERT INTO accounts VALUES ('x', 'y', 1, 'z')" ()) > 0);
  Alcotest.(check bool) "unknown table" true
    (String.length (exec_err ctx "SELECT * FROM nope" ()) > 0);
  Alcotest.(check bool) "unknown column" true
    (String.length (exec_err ctx "SELECT nope FROM accounts" ()) > 0);
  Alcotest.(check bool) "arith on string" true
    (String.length (exec_err ctx "SELECT owner + 1 FROM accounts WHERE id = 1" ()) > 0)

(* --- Differential: planned access paths vs the full scan ---

   A random statement runs twice on fresh copies of the fixture after the
   same own writes: once as written, once with its WHERE wrapped in
   [NOT NOT (...)], which no access path can use, so it goes down the
   full scan. Result, read set and write set must agree. Point, prefix
   and range paths visit rows in the full scan's order, so they must
   agree exactly; a secondary-index probe visits index order, so with
   the index present they agree as multisets. *)

let gen_bound =
  QCheck.Gen.(
    oneof
      [
        map string_of_int (int_range (-1) 6);
        map (Printf.sprintf "%d.0") (int_range 0 6);
        map (Printf.sprintf "%d.5") (int_range 0 5);
        return "NULL";
      ])

let gen_region = QCheck.Gen.oneofl [ "'north'"; "'south'"; "'east'"; "'west'" ]

let gen_atom =
  QCheck.Gen.(
    let cmp = oneofl [ "<"; "<="; ">"; ">="; "=" ] in
    oneof
      [
        map2 (Printf.sprintf "id BETWEEN %s AND %s") gen_bound gen_bound;
        map2 (Printf.sprintf "id %s %s") cmp gen_bound;
        map2 (Printf.sprintf "%s %s id") gen_bound cmp;
        map (Printf.sprintf "region = %s") gen_region;
        map (Printf.sprintf "balance > %d") (int_range 0 500);
      ])

let gen_where =
  QCheck.Gen.(
    map (String.concat " AND ") (list_size (int_range 1 3) gen_atom))

let gen_own_write =
  QCheck.Gen.(
    let key = int_range 0 6 in
    oneof
      [
        map3
          (Printf.sprintf "INSERT INTO accounts VALUES (%d, 'zed', %d, %s)")
          key (int_range 0 500) gen_region;
        map3
          (Printf.sprintf "UPDATE accounts SET region = %s, balance = %d WHERE id = %d")
          gen_region (int_range 0 500) key;
        map (Printf.sprintf "DELETE FROM accounts WHERE id = %d") key;
      ])

(* statement text around its WHERE clause *)
let gen_stmt =
  QCheck.Gen.oneofl
    [
      ("SELECT id, owner, balance, region FROM accounts WHERE ", "");
      ("SELECT COUNT(*), SUM(balance) FROM accounts WHERE ", "");
      ("SELECT id FROM accounts WHERE ", " ORDER BY id DESC LIMIT 2");
      ("UPDATE accounts SET balance = balance + 1 WHERE ", "");
      ("DELETE FROM accounts WHERE ", "");
    ]

let run_case ~index ~own_writes sql =
  let ctx = Executor.Ctx.create ~record_reads:true (fixture ()) in
  if index then
    ignore (exec_ok ctx "CREATE INDEX accounts_by_region ON accounts (region)" ());
  List.iter (fun w -> ignore (Executor.exec_sql ctx w ~params:[||])) own_writes;
  let result =
    Result.map (fun r -> (r.Executor.rows, r.affected)) (Executor.exec_sql ctx sql ~params:[||])
  in
  let reads =
    List.map
      (fun r -> (r.Executor.r_table, r.r_key_str, r.r_csn, r.r_cen))
      (Executor.Ctx.read_set ctx)
  in
  let writes =
    List.map
      (fun r -> Gg_crdt.Writeset.(r.table, r.key, r.op, r.data, r.cols))
      (Executor.Ctx.writeset_records ctx)
  in
  (result, reads, writes)

let prop_planned_matches_full_scan =
  let gen =
    QCheck.Gen.(
      map3
        (fun index own_writes (stmt, where) -> (index, own_writes, stmt, where))
        bool (list_size (int_range 0 4) gen_own_write) (pair gen_stmt gen_where))
  in
  let sql (pre, post) where = pre ^ where ^ post in
  let print (index, own_writes, stmt, where) =
    Printf.sprintf "index=%b; %s; %s" index (String.concat "; " own_writes)
      (sql stmt where)
  in
  QCheck.Test.make ~name:"planned access path = full scan" ~count:1000
    (QCheck.make ~print gen) (fun (index, own_writes, stmt, where) ->
      let planned = run_case ~index ~own_writes (sql stmt where) in
      let full = run_case ~index ~own_writes (sql stmt ("NOT NOT (" ^ where ^ ")")) in
      if not index then planned = full
      else
        let canon (result, reads, writes) =
          ( Result.map (fun (rows, n) -> (List.sort compare rows, n)) result,
            List.sort compare reads,
            List.sort compare writes )
        in
        canon planned = canon full)

(* --- Fuzz: any text gives Ok or Error, never another exception --- *)

let sql_vocabulary =
  [|
    "SELECT"; "FROM"; "WHERE"; "INSERT"; "INTO"; "VALUES"; "UPDATE"; "SET";
    "DELETE"; "CREATE"; "TABLE"; "INDEX"; "PRIMARY"; "KEY"; "AND"; "OR"; "NOT";
    "ORDER"; "BY"; "ASC"; "DESC"; "LIMIT"; "JOIN"; "INNER"; "ON"; "AS"; "NULL";
    "INT"; "FLOAT"; "STRING"; "VARCHAR"; "COUNT"; "SUM"; "MIN"; "MAX"; "AVG";
    "GROUP"; "IN"; "BETWEEN"; "LIKE"; "accounts"; "regions"; "a"; "r"; "id";
    "owner"; "balance"; "region"; "rname"; "tz"; "nope"; "0"; "1"; "3";
    "99999999999999999999"; "2.5"; "0.0"; "'north'"; "'%a%'"; "''"; "?"; "(";
    ")"; ","; "*"; "+"; "-"; "/"; "%"; "="; "<"; ">"; "<="; ">="; "<>"; "!=";
    "||"; "."; ";";
  |]

let fuzz_templates =
  [|
    "SELECT id , owner FROM accounts WHERE id BETWEEN 1 AND 3 ORDER BY id";
    "SELECT region , COUNT ( * ) , SUM ( balance ) FROM accounts GROUP BY region";
    "SELECT a . id , r . tz FROM accounts a JOIN regions r ON a . region = r . rname";
    "UPDATE accounts SET balance = balance + 1 WHERE id > 2";
    "DELETE FROM accounts WHERE region = 'north'";
    "INSERT INTO accounts VALUES ( 9 , 'x' , 1 , 'west' )";
    "CREATE TABLE t ( k INT , v STRING , PRIMARY KEY ( k ) )";
    "CREATE INDEX i ON accounts ( region )";
  |]

let gen_fuzz_sql =
  QCheck.Gen.(
    let token = map (Array.get sql_vocabulary) (int_bound (Array.length sql_vocabulary - 1)) in
    let random_tokens = map (String.concat " ") (list_size (int_range 0 16) token) in
    let mutated =
      let* template = oneofa fuzz_templates in
      let* edits = list_size (int_range 1 3) (triple (int_bound 2) nat token) in
      let words = String.split_on_char ' ' template in
      let apply words (kind, pos, tok) =
        let pos = pos mod (List.length words + 1) in
        List.concat
          (List.mapi
             (fun i w ->
               if i <> pos then [ w ]
               else match kind with 0 -> [] | 1 -> [ tok ] | _ -> [ tok; w ])
             words)
        @ if pos = List.length words then [ tok ] else []
      in
      return (String.concat " " (List.fold_left apply words edits))
    in
    oneof [ random_tokens; mutated ])

let prop_fuzz_never_raises =
  QCheck.Test.make ~name:"random SQL gives Ok or Error" ~count:2000
    (QCheck.make ~print:Fun.id gen_fuzz_sql) (fun sql ->
      let ctx = Executor.Ctx.create (fixture ()) in
      match Executor.exec_sql ctx sql ~params:[| v_int 2 |] with
      | Ok _ | Error _ -> true
      | exception e ->
        QCheck.Test.fail_reportf "%S raised %s" sql (Printexc.to_string e))

(* --- AST-level fuzz: random statements straight into the executor ---

   Statements are generated as [Ast] values over the fixture's tables,
   so shapes the parser would never build (an aggregate inside a
   comparison, a missing parameter, a star beside an aggregate) reach
   the executor too. One to four run in one context with random
   parameters. Every statement must give [Ok] or [Error], and the read
   set must never hold the same (table, key) twice. *)

let gen_value =
  QCheck.Gen.(
    oneof
      [
        map v_int (int_range (-1) 5);
        map (fun i -> Value.Float (float_of_int i /. 2.0)) (int_range (-2) 10);
        map v_str (oneofl [ "north"; "south"; "east"; "alice"; "%o%"; "" ]);
        return Value.Null;
      ])

(* Column references in scope for the statement's table refs, each both
   qualified and bare; an unknown column is drawn now and then. *)
let scope_cols refs =
  List.concat_map
    (fun (tr : Ast.table_ref) ->
      let q = Option.value tr.alias ~default:tr.table in
      let names =
        match tr.table with
        | "accounts" -> [ "id"; "owner"; "balance"; "region" ]
        | "regions" -> [ "rname"; "tz" ]
        | _ -> [ "nope" ]
      in
      List.concat_map (fun c -> [ (Some q, c); (None, c) ]) names)
    refs

let gen_col cols =
  QCheck.Gen.(
    frequency [ (40, oneofl cols); (1, return (None, "nope")) ]
    |> map (fun (q, c) -> Ast.Col (q, c)))

let gen_leaf cols =
  QCheck.Gen.(
    frequency
      [
        (3, gen_col cols);
        (2, map (fun v -> Ast.Const v) gen_value);
        (1, map (fun i -> Ast.Param i) (frequency [ (8, int_range 0 2); (1, return 3) ]));
      ])

let gen_ast_expr cols =
  QCheck.Gen.(
    sized_size (int_bound 3)
    @@ fix (fun self n ->
           let leaf = gen_leaf cols in
           if n = 0 then leaf
           else
             let sub = self (n - 1) in
             let binop ops = map3 (fun op a b -> Ast.Binop (op, a, b)) (oneofl ops) sub sub in
             frequency
               [
                 (2, leaf);
                 (3, binop Ast.[ Eq; Ne; Lt; Le; Gt; Ge ]);
                 (2, binop Ast.[ And; Or ]);
                 (1, binop Ast.[ Add; Sub; Mul; Div; Mod; Concat ]);
                 (1, map2 (fun op e -> Ast.Unop (op, e)) (oneofl Ast.[ Neg; Not ]) sub);
                 (1, map2 (fun e l -> Ast.In_list (e, l)) sub (list_size (int_range 0 3) sub));
                 (1, map3 (fun e lo hi -> Ast.Between (e, lo, hi)) sub sub sub);
                 (1, map2 (fun e p -> Ast.Like (e, p)) sub sub);
               ]))

(* WHERE clauses: mostly column-vs-constant conjuncts (the shapes the
   planner turns into point, range and index paths), sometimes any
   expression. *)
let gen_ast_where cols =
  QCheck.Gen.(
    let atom =
      let* c = gen_col cols in
      let leaf = gen_leaf cols in
      oneof
        [
          map2 (fun op v -> Ast.Binop (op, c, v)) (oneofl Ast.[ Eq; Ne; Lt; Le; Gt; Ge ]) leaf;
          map2 (fun lo hi -> Ast.Between (c, lo, hi)) leaf leaf;
          map (fun l -> Ast.In_list (c, l)) (list_size (int_range 1 3) leaf);
        ]
    in
    let conj =
      map2
        (fun a rest -> List.fold_left (fun x y -> Ast.Binop (Ast.And, x, y)) a rest)
        atom
        (list_size (int_range 0 2) atom)
    in
    option ~ratio:0.85 (frequency [ (3, conj); (1, gen_ast_expr cols) ]))

let gen_from =
  QCheck.Gen.(
    map2
      (fun table alias -> { Ast.table; alias })
      (frequency [ (14, return "accounts"); (5, return "regions"); (1, return "nope") ])
      (oneofl [ None; Some "a" ]))

let gen_ast_select =
  QCheck.Gen.(
    let* from = gen_from in
    let* join =
      option ~ratio:0.25
        (map2
           (fun table alias -> { Ast.table; alias = Some alias })
           (oneofl [ "accounts"; "regions" ])
           (oneofl [ "b"; "r" ]))
    in
    let cols = scope_cols (from :: Option.to_list join) in
    let expr = gen_ast_expr cols in
    let* join =
      match join with
      | None -> return None
      | Some tr -> map (fun on -> Some (tr, on)) expr
    in
    let plain =
      frequency
        [
          (1, return Ast.Star);
          (4, map2 (fun e a -> Ast.Expr_proj (e, a)) expr (oneofl [ None; Some "x" ]));
        ]
    in
    let agg =
      map3
        (fun fn arg a -> Ast.Agg (fn, arg, a))
        (oneofl Ast.[ Count; Sum; Min; Max; Avg ])
        (option expr) (oneofl [ None; Some "agg" ])
    in
    (* plain, aggregate-only, grouped, or (rarely) an invalid mix *)
    let* projs, group_by =
      frequency
        [
          (4, map (fun p -> (p, [])) (list_size (int_range 1 3) plain));
          (3, map (fun p -> (p, [])) (list_size (int_range 1 3) agg));
          ( 2,
            pair
              (list_size (int_range 1 3) (frequency [ (1, plain); (2, agg) ]))
              (list_size (int_range 1 2) (gen_col cols)) );
          (1, map (fun p -> (p, [])) (list_size (int_range 1 3) (oneof [ plain; agg ])));
        ]
    in
    let* where = gen_ast_where cols in
    let* order_by = list_size (int_range 0 2) (pair expr (oneofl Ast.[ Asc; Desc ])) in
    let* limit = option ~ratio:0.3 (int_range 0 3) in
    return (Ast.Select { projs; from; join; where; group_by; order_by; limit }))

(* A well-typed row for the table most of the time, any values else. *)
let gen_insert_row table =
  QCheck.Gen.(
    let const g = map (fun v -> Ast.Const v) g in
    let typed =
      match table with
      | "accounts" ->
        flatten_l
          [
            const (map v_int (int_range 0 7));
            const (map v_str (oneofl [ "zed"; "yan" ]));
            const (map v_int (int_range 0 500));
            const (map v_str (oneofl [ "north"; "south"; "west" ]));
          ]
      | _ ->
        flatten_l
          [
            const (map v_str (oneofl [ "north"; "west"; "up" ]));
            const (map v_int (int_range 0 12));
          ]
    in
    frequency [ (3, typed); (1, list_size (int_range 1 4) (const gen_value)) ])

let gen_ast_stmt =
  QCheck.Gen.(
    let* table =
      frequency [ (14, return "accounts"); (5, return "regions"); (1, return "nope") ]
    in
    let cols = scope_cols [ { Ast.table; alias = None } ] in
    let names = List.sort_uniq compare (List.map snd cols) in
    let col = frequency [ (20, oneofl names); (1, return "nope") ] in
    (* the key columns only rarely: updating one is an error *)
    let set_col =
      match table with
      | "accounts" -> frequency [ (12, oneofl [ "owner"; "balance"; "region" ]); (1, col) ]
      | "regions" -> frequency [ (6, return "tz"); (1, col) ]
      | _ -> col
    in
    let expr = gen_ast_expr cols in
    frequency
      [
        (5, gen_ast_select);
        ( 2,
          map2
            (fun sets where -> Ast.Update { table; sets; where })
            (list_size (int_range 1 2) (pair set_col expr))
            (gen_ast_where cols) );
        (1, map (fun where -> Ast.Delete { table; where }) (gen_ast_where cols));
        ( 2,
          map2
            (fun cols rows -> Ast.Insert { table; cols; rows })
            (option ~ratio:0.1 (list_size (int_range 1 4) col))
            (list_size (int_range 1 2) (gen_insert_row table)) );
      ])

(* SQL-like rendering, for counterexamples only *)
let rec show_expr = function
  | Ast.Const v -> Value.to_string v
  | Ast.Col (None, c) -> c
  | Ast.Col (Some q, c) -> q ^ "." ^ c
  | Ast.Param i -> Printf.sprintf "?%d" (i + 1)
  | Ast.Unop (Ast.Neg, e) -> "-(" ^ show_expr e ^ ")"
  | Ast.Unop (Ast.Not, e) -> "NOT (" ^ show_expr e ^ ")"
  | Ast.Binop (op, a, b) ->
    Printf.sprintf "(%s %s %s)" (show_expr a) (Ast.binop_to_string op) (show_expr b)
  | Ast.In_list (e, l) ->
    Printf.sprintf "%s IN (%s)" (show_expr e) (String.concat ", " (List.map show_expr l))
  | Ast.Between (e, lo, hi) ->
    Printf.sprintf "%s BETWEEN %s AND %s" (show_expr e) (show_expr lo) (show_expr hi)
  | Ast.Like (e, p) -> Printf.sprintf "%s LIKE %s" (show_expr e) (show_expr p)

let show_where = function None -> "" | Some w -> " WHERE " ^ show_expr w

let show_table_ref (tr : Ast.table_ref) =
  tr.table ^ match tr.alias with None -> "" | Some a -> " " ^ a

let show_stmt = function
  | Ast.Select s ->
    let proj = function
      | Ast.Star -> "*"
      | Ast.Expr_proj (e, _) -> show_expr e
      | Ast.Agg (_, None, _) -> "COUNT(*)"
      | Ast.Agg (_, Some e, _) -> "AGG(" ^ show_expr e ^ ")"
    in
    Printf.sprintf "SELECT %s FROM %s%s%s%s%s%s"
      (String.concat ", " (List.map proj s.projs))
      (show_table_ref s.from)
      (match s.join with
      | None -> ""
      | Some (tr, on) -> " JOIN " ^ show_table_ref tr ^ " ON " ^ show_expr on)
      (show_where s.where)
      (match s.group_by with
      | [] -> ""
      | g -> " GROUP BY " ^ String.concat ", " (List.map show_expr g))
      (match s.order_by with
      | [] -> ""
      | o -> " ORDER BY " ^ String.concat ", " (List.map (fun (e, _) -> show_expr e) o))
      (match s.limit with None -> "" | Some k -> Printf.sprintf " LIMIT %d" k)
  | Ast.Update { table; sets; where } ->
    Printf.sprintf "UPDATE %s SET %s%s" table
      (String.concat ", " (List.map (fun (c, e) -> c ^ " = " ^ show_expr e) sets))
      (show_where where)
  | Ast.Delete { table; where } -> Printf.sprintf "DELETE FROM %s%s" table (show_where where)
  | Ast.Insert { table; rows; _ } ->
    Printf.sprintf "INSERT INTO %s VALUES %s" table
      (String.concat ", "
         (List.map (fun r -> "(" ^ String.concat ", " (List.map show_expr r) ^ ")") rows))
  | Ast.Create_table _ | Ast.Create_index _ -> "CREATE ..."

(* Positional parameters, sometimes fewer than a statement uses. *)
let gen_params =
  QCheck.Gen.(array_size (frequency [ (1, int_range 0 2); (4, return 3) ]) gen_value)

(* One to four statements and the parameters they share. *)
let arb_ast_stmts =
  let gen = QCheck.Gen.(pair (list_size (int_range 1 4) gen_ast_stmt) gen_params) in
  let print (stmts, params) =
    Printf.sprintf "params=[%s]; %s"
      (String.concat "," (Array.to_list (Array.map Value.to_string params)))
      (String.concat "; " (List.map show_stmt stmts))
  in
  QCheck.make ~print gen

let prop_ast_fuzz_read_set_distinct =
  QCheck.Test.make ~name:"random AST statements: Ok or Error, distinct read set"
    ~count:2000 arb_ast_stmts (fun (stmts, params) ->
      let ctx = Executor.Ctx.create ~record_reads:true (fixture ()) in
      List.iter
        (fun stmt ->
          match Executor.exec ctx stmt ~params with
          | Ok _ | Error _ -> ()
          | exception e ->
            QCheck.Test.fail_reportf "%s raised %s" (show_stmt stmt) (Printexc.to_string e))
        stmts;
      let keys =
        List.map (fun r -> (r.Executor.r_table, r.r_key_str)) (Executor.Ctx.read_set ctx)
      in
      List.length (List.sort_uniq compare keys) = List.length keys)

(* Read sets where the dedup index has to be switched on mid-transaction:
   the first statement appends unprobed, a later one must see its reads. *)
let read_keys ctx =
  List.map
    (fun r ->
      ( r.Executor.r_table,
        match
          List.find_opt (fun i -> Value.encode_key [| v_int i |] = r.r_key_str) [ 1; 2; 3; 4 ]
        with
        | Some i -> i
        | None -> Alcotest.fail "unexpected key" ))
    (Executor.Ctx.read_set ctx)

let test_read_set_range_then_aggregate () =
  let ctx = Executor.Ctx.create ~record_reads:true (fixture ()) in
  ignore (exec_ok ctx "SELECT id FROM accounts WHERE id BETWEEN 2 AND 3" ());
  ignore (exec_ok ctx "SELECT COUNT(*), SUM(balance) FROM accounts WHERE balance >= 300" ());
  Alcotest.(check (list (pair string int)))
    "2, 3 from the range; only 4 is new to the aggregate"
    [ ("accounts", 2); ("accounts", 3); ("accounts", 4) ]
    (read_keys ctx)

let test_read_set_update_then_select () =
  let db = fixture () in
  let csn_before =
    (Option.get (Table.find (Db.get_table_exn db "accounts") (Value.encode_key [| v_int 1 |])))
      .Table.header.Row_header.csn
  in
  let ctx = Executor.Ctx.create ~record_reads:true db in
  ignore (exec_ok ctx "UPDATE accounts SET balance = 5 WHERE id = 1" ());
  let r = exec_ok ctx "SELECT balance FROM accounts WHERE id = 1" () in
  Alcotest.(check bool) "own update visible" true (r.Executor.rows = [ [| v_int 5 |] ]);
  Alcotest.(check (list (pair string int))) "row 1 once" [ ("accounts", 1) ] (read_keys ctx);
  Alcotest.(check bool) "first observation kept" true
    (List.for_all
       (fun r -> Gg_storage.Csn.equal r.Executor.r_csn csn_before)
       (Executor.Ctx.read_set ctx))

let test_read_set_self_join () =
  let ctx = Executor.Ctx.create ~record_reads:true (fixture ()) in
  let r =
    exec_ok ctx "SELECT a.id, b.id FROM accounts a JOIN accounts b ON a.region = b.region" ()
  in
  Alcotest.(check int) "north pairs 4 + south 1 + east 1" 6 (List.length r.Executor.rows);
  (* outer 1 meets inner 1 and 3; outer 2 meets 2; outer 3 repeats; 4 *)
  Alcotest.(check (list (pair string int)))
    "each row once, in first-read order"
    [ ("accounts", 1); ("accounts", 3); ("accounts", 2); ("accounts", 4) ]
    (read_keys ctx)

(* The same statements with the read set off: what node runs at RC.
   Results and write sets must not change, and nothing is recorded. *)
let prop_reads_off_same_effects =
  let run ~record_reads (stmts, params) =
    let ctx = Executor.Ctx.create ~record_reads (fixture ()) in
    let results =
      List.map
        (fun stmt ->
          Result.map
            (fun r -> Executor.(r.columns, r.rows, r.affected))
            (Executor.exec ctx stmt ~params))
        stmts
    in
    let writes =
      List.map
        (fun r -> Gg_crdt.Writeset.(r.table, key_str r, r.op, r.data, r.cols))
        (Executor.Ctx.writeset_records ctx)
    in
    (results, writes, Executor.Ctx.read_set ctx)
  in
  QCheck.Test.make ~name:"reads off: same results and writes, empty read set"
    ~count:1000 arb_ast_stmts (fun case ->
      let on_results, on_writes, _ = run ~record_reads:true case in
      let off_results, off_writes, off_reads = run ~record_reads:false case in
      on_results = off_results && on_writes = off_writes && off_reads = [])

(* A plan compiled once and run with two parameter vectors, each after
   the same own writes, against a fresh [Executor.exec] with that
   vector: the same result or error, read set (in order) and write-set
   records. A plan that kept anything of its first run's parameters
   would answer the second from them. *)
let prop_cached_plan_matches_exec =
  let gen =
    QCheck.Gen.(
      quad (list_size (int_range 0 3) gen_ast_stmt) gen_ast_stmt gen_params gen_params)
  in
  let print (own, stmt, p1, p2) =
    let show_params p =
      String.concat "," (Array.to_list (Array.map Value.to_string p))
    in
    Printf.sprintf "own writes: %s; statement: %s; params [%s] then [%s]"
      (String.concat "; " (List.map show_stmt own))
      (show_stmt stmt) (show_params p1) (show_params p2)
  in
  QCheck.Test.make ~name:"cached plan = fresh compile" ~count:1000
    (QCheck.make ~print gen) (fun (own, stmt, p1, p2) ->
      let db = fixture () in
      let plan = Executor.compile db stmt in
      let outcome exec params =
        let ctx = Executor.Ctx.create ~record_reads:true ~track_cols:true db in
        List.iter (fun s -> ignore (Executor.exec ctx s ~params:p1)) own;
        let r =
          Result.map (fun r -> Executor.(r.columns, r.rows, r.affected)) (exec ctx params)
        in
        let writes =
          List.map
            (fun r -> Gg_crdt.Writeset.(r.table, key_str r, r.op, r.data, r.cols))
            (Executor.Ctx.writeset_records ctx)
        in
        (r, Executor.Ctx.read_set ctx, writes)
      in
      let cached ctx params =
        Result.bind plan (fun plan -> Executor.run ctx plan ~params)
      in
      let fresh ctx params = Executor.exec ctx stmt ~params in
      List.for_all
        (fun params -> outcome cached params = outcome fresh params)
        [ p1; p2 ])

(* --- Boolean predicates ---

   [Expr.bind_pred] against the value path it stands in for,
   [is_truthy (bind e row)]: random WHERE clauses and expressions
   over one or two of the fixture's tables, evaluated on fixture rows
   and on rows of any values, must give the same truth value, or the
   same [Sql_error] at the same stage (binding or evaluation). *)

let pred_scopes =
  [
    [ { Ast.table = "accounts"; alias = None } ];
    [ { Ast.table = "accounts"; alias = Some "a" }; { Ast.table = "regions"; alias = Some "r" } ];
    (* bare column names are ambiguous here *)
    [ { Ast.table = "accounts"; alias = Some "a" }; { Ast.table = "accounts"; alias = Some "b" } ];
  ]

let pred_db = fixture ()

let gen_pred_row table =
  let tbl = Db.get_table_exn pred_db table in
  let stored = ref [] in
  Table.scan tbl ~f:(fun e -> stored := e.Table.data :: !stored);
  QCheck.Gen.(
    frequency
      [
        (1, oneofl !stored);
        (1, array_size (return (Schema.arity (Table.schema tbl))) gen_value);
      ])

let gen_pred_case =
  QCheck.Gen.(
    let* refs = oneofl pred_scopes in
    let cols = scope_cols refs in
    let* e =
      frequency
        [
          (2, gen_ast_where cols >>= function Some w -> return w | None -> gen_ast_expr cols);
          (1, gen_ast_expr cols);
        ]
    in
    let rows = flatten_l (List.map (fun (tr : Ast.table_ref) -> gen_pred_row tr.table) refs) in
    let* rows = pair rows rows in
    let* params = gen_params in
    return (refs, e, rows, params))

let prop_bind_pred_matches_bind =
  let print (refs, e, (rows1, rows2), params) =
    let show_rows rows =
      String.concat " | "
        (List.map
           (fun r -> String.concat "," (Array.to_list (Array.map Value.to_string r)))
           rows)
    in
    Printf.sprintf "FROM %s WHERE %s; rows [%s] then [%s]; params=[%s]"
      (String.concat ", " (List.map show_table_ref refs))
      (show_expr e) (show_rows rows1) (show_rows rows2)
      (String.concat "," (Array.to_list (Array.map Value.to_string params)))
  in
  let outcome f = match f () with b -> Ok b | exception Expr.Sql_error m -> Error m in
  QCheck.Test.make ~name:"bind_pred = is_truthy . eval . bind" ~count:3000
    (QCheck.make ~print gen_pred_case) (fun (refs, e, (rows1, rows2), params) ->
      let env =
        List.map
          (fun (tr : Ast.table_ref) ->
            {
              Expr.Env.binding_name = Option.value tr.alias ~default:tr.table;
              schema = Table.schema (Db.get_table_exn pred_db tr.table);
              row = [||];
            })
          refs
      in
      (* Bind both before any row or parameter is set, as a compiled
         statement is, and build the predicate's test once the
         parameters are in the slot, as a run does; then evaluate each
         on two successive row sets, the outer rows set in their
         bindings and the last row passed as the argument. *)
      let slot = { Expr.values = [||] } in
      let bound = outcome (fun () -> Expr.bind env ~params:slot e) in
      let pred = outcome (fun () -> Expr.bind_pred env ~params:slot e) in
      slot.values <- params;
      let pred = Result.map (fun p -> p ()) pred in
      let eval rows =
        let rec set_outer bs rs =
          match (bs, rs) with
          | [ _ ], [ last ] -> last
          | b :: bs, r :: rs ->
            b.Expr.Env.row <- r;
            set_outer bs rs
          | _ -> invalid_arg "one row per binding"
        in
        let last = set_outer env rows in
        ( Result.map (fun b -> outcome (fun () -> Expr.is_truthy (b last))) bound,
          Result.map (fun p -> outcome (fun () -> p last)) pred )
      in
      List.for_all
        (fun rows ->
          let expected, got = eval rows in
          expected = got)
        [ rows1; rows2 ])

(* --- Allocation ---

   The sql-scan workload's two read statements on its 2k-row table
   (Sqlgen.Scan). A scan must allocate nothing for a row it visits and
   skips, and for a row it keeps only what the result needs: the
   per-row cost is the difference from the same statement matching no
   row. Each count is the minor-heap words of the second run of a
   statement, on a context made outside the count: the first run builds
   the table's ordered index. *)

let alloc_db =
  lazy
    (let db = Db.create () in
     Gg_workload.Sqlgen.Scan.(load (with_records base 2_000)) db;
     db)

let alloc_words sql params =
  let stmt = Parser.parse sql in
  let run () =
    let ctx = Executor.Ctx.create (Lazy.force alloc_db) in
    let before = Gc.minor_words () in
    let r = Executor.exec ctx stmt ~params in
    let words = Gc.minor_words () -. before in
    match r with
    | Ok r -> (words, r.Executor.rows)
    | Error m -> Alcotest.failf "unexpected SQL error on %S: %s" sql m
  in
  ignore (run ());
  run ()

let test_alloc_aggregate () =
  let sql = "SELECT COUNT(*), SUM(amount) FROM events WHERE region = ?" in
  let hit, rows = alloc_words sql [| v_int 3 |] in
  let miss, _ = alloc_words sql [| v_int 99 |] in
  (match rows with
  | [ [| Value.Int 250; _ |] ] -> ()
  | _ -> Alcotest.fail "250 rows of region 3");
  if (hit -. miss) /. 250. >= 1. then
    Alcotest.failf "%.0f words with 250 matches, %.0f with none: %.2f per match" hit
      miss ((hit -. miss) /. 250.)

let test_alloc_range () =
  let sql = "SELECT ev_id, amount FROM events WHERE ev_id BETWEEN ? AND ?" in
  let words, rows = alloc_words sql [| v_int 900; v_int 1099 |] in
  let empty, none = alloc_words sql [| v_int 5_000; v_int 5_199 |] in
  Alcotest.(check (pair int int)) "rows" (200, 0) (List.length rows, List.length none);
  if (words -. empty) /. 200. > 10. then
    Alcotest.failf "%.0f words for 200 rows, %.0f for none: %.2f per row" words empty
      ((words -. empty) /. 200.)

(* The same two statements compiled once, as a node caches them: a run
   that matches no row allocates only its result and a few closures. *)
let test_alloc_cached_miss () =
  List.iter
    (fun (sql, params) ->
      let plan = Result.get_ok (Executor.compile (Lazy.force alloc_db) (Parser.parse sql)) in
      let run () =
        let ctx = Executor.Ctx.create (Lazy.force alloc_db) in
        let before = Gc.minor_words () in
        let r = Executor.run ctx plan ~params in
        let words = Gc.minor_words () -. before in
        match r with
        | Ok r -> (words, r.Executor.rows)
        | Error m -> Alcotest.failf "unexpected SQL error on %S: %s" sql m
      in
      ignore (run ());
      let words, rows = run () in
      (match rows with
      | [] | [ [| Value.Int 0; Value.Null |] ] -> ()
      | _ -> Alcotest.failf "%S matched a row" sql);
      if words > 60. then Alcotest.failf "%S: %.0f words with no match" sql words)
    [
      ("SELECT COUNT(*), SUM(amount) FROM events WHERE region = ?", [| v_int 99 |]);
      ("SELECT ev_id, amount FROM events WHERE ev_id BETWEEN ? AND ?", [| v_int 5_000; v_int 5_199 |]);
    ]

let () =
  Alcotest.run "gg_sql"
    [
      ( "lexer",
        [
          Alcotest.test_case "basic" `Quick test_lexer_basic;
          Alcotest.test_case "params" `Quick test_lexer_params;
          Alcotest.test_case "error" `Quick test_lexer_error;
        ] );
      ( "parser",
        [
          Alcotest.test_case "select" `Quick test_parse_select;
          Alcotest.test_case "order/limit" `Quick test_parse_order_limit;
          Alcotest.test_case "join" `Quick test_parse_join;
          Alcotest.test_case "insert" `Quick test_parse_insert;
          Alcotest.test_case "update/delete" `Quick test_parse_update_delete;
          Alcotest.test_case "create" `Quick test_parse_create;
          Alcotest.test_case "param numbering" `Quick test_parse_params_numbering;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ( "plan",
        [
          Alcotest.test_case "point" `Quick test_plan_point;
          Alcotest.test_case "point with param" `Quick test_plan_point_param;
          Alcotest.test_case "full" `Quick test_plan_full;
          Alcotest.test_case "col=col not indexable" `Quick test_plan_no_col_equality;
          Alcotest.test_case "range" `Quick test_plan_range;
          QCheck_alcotest.to_alcotest prop_planned_matches_full_scan;
        ] );
      ( "select",
        [
          Alcotest.test_case "point lookup" `Quick test_select_point;
          Alcotest.test_case "filter" `Quick test_select_filter;
          Alcotest.test_case "order by / limit" `Quick test_select_order_by_limit;
          Alcotest.test_case "star columns" `Quick test_select_star_columns;
          Alcotest.test_case "aggregates" `Quick test_select_aggregates;
          Alcotest.test_case "aggregate misuse is an error" `Quick
            test_agg_misuse_is_error_not_crash;
          Alcotest.test_case "agg with filter" `Quick test_select_agg_with_filter;
          Alcotest.test_case "join" `Quick test_select_join;
          Alcotest.test_case "join cardinality" `Quick test_select_join_cardinality;
          Alcotest.test_case "params" `Quick test_select_params;
          Alcotest.test_case "missing param" `Quick test_select_missing_param;
          Alcotest.test_case "expression projections" `Quick test_select_expression_projs;
          Alcotest.test_case "group by" `Quick test_select_group_by;
          Alcotest.test_case "group by without agg" `Quick test_select_group_by_no_agg;
          Alcotest.test_case "agg over empty match" `Quick test_select_agg_empty_table;
          Alcotest.test_case "IN list" `Quick test_select_in_list;
          Alcotest.test_case "BETWEEN" `Quick test_select_between;
          Alcotest.test_case "LIKE" `Quick test_select_like;
          Alcotest.test_case "range scan" `Quick test_select_range;
          Alcotest.test_case "range scan on a composite key" `Quick
            test_select_range_composite_key;
          Alcotest.test_case "key probe with the other numeric type" `Quick
            test_key_probe_numeric_types;
          Alcotest.test_case "unknown columns fail at bind time" `Quick
            test_bind_time_errors;
          QCheck_alcotest.to_alcotest prop_fuzz_never_raises;
        ] );
      ( "read set",
        [
          Alcotest.test_case "recorded" `Quick test_read_set_recorded;
          Alcotest.test_case "first observation kept" `Quick test_read_set_first_observation;
          Alcotest.test_case "scan records matches" `Quick test_scan_records_matching_only;
          Alcotest.test_case "range then overlapping aggregate" `Quick
            test_read_set_range_then_aggregate;
          Alcotest.test_case "update then select of the row" `Quick
            test_read_set_update_then_select;
          Alcotest.test_case "self-join" `Quick test_read_set_self_join;
          QCheck_alcotest.to_alcotest prop_ast_fuzz_read_set_distinct;
          QCheck_alcotest.to_alcotest prop_reads_off_same_effects;
        ] );
      ("plans", [ QCheck_alcotest.to_alcotest prop_cached_plan_matches_exec ]);
      ("preds", [ QCheck_alcotest.to_alcotest prop_bind_pred_matches_bind ]);
      ( "alloc",
        [
          Alcotest.test_case "aggregate allocates nothing per match" `Quick
            test_alloc_aggregate;
          Alcotest.test_case "range allocates the result only" `Quick test_alloc_range;
          Alcotest.test_case "cached plan matching no row" `Quick test_alloc_cached_miss;
        ] );
      ( "writes",
        [
          Alcotest.test_case "update buffered" `Quick test_update_buffered;
          Alcotest.test_case "update coalesces" `Quick test_update_twice_coalesces;
          Alcotest.test_case "key update rejected" `Quick test_update_key_col_rejected;
          Alcotest.test_case "insert visible to self" `Quick test_insert_visible_to_self;
          Alcotest.test_case "insert duplicate" `Quick test_insert_duplicate;
          Alcotest.test_case "insert with columns" `Quick test_insert_with_columns;
          Alcotest.test_case "delete then scan" `Quick test_delete_then_scan;
          Alcotest.test_case "insert+delete cancels" `Quick test_insert_then_delete_cancels;
          Alcotest.test_case "update+delete collapses" `Quick test_update_then_delete;
          Alcotest.test_case "create table + dml" `Quick test_create_table_dml;
          Alcotest.test_case "create table without columns" `Quick
            test_create_table_without_columns;
          Alcotest.test_case "create index + probe" `Quick test_create_index_and_probe;
          Alcotest.test_case "index probe sees own update" `Quick
            test_index_sees_own_update;
          Alcotest.test_case "type errors" `Quick test_type_errors;
        ] );
    ]
