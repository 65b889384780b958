(* Tests for the storage engine: values, schemas, tables, tombstones,
   temp insert table, scans, digests, WAL model. *)

open Gg_storage

let v_int i = Value.Int i
let v_str s = Value.Str s

let schema_kv () =
  Schema.create ~name:"kv"
    ~columns:[ { Schema.name = "k"; ty = Schema.TInt }; { name = "v"; ty = TStr } ]
    ~key:[ "k" ]

(* --- Value --- *)

let test_value_compare () =
  Alcotest.(check bool) "null smallest" true (Value.compare Value.Null (v_int 0) < 0);
  Alcotest.(check bool) "int float cross" true (Value.compare (v_int 1) (Value.Float 1.5) < 0);
  Alcotest.(check bool) "int float equal" true (Value.compare (v_int 2) (Value.Float 2.0) = 0);
  Alcotest.(check bool) "str after num" true (Value.compare (v_int 999) (v_str "a") < 0);
  Alcotest.(check bool) "str order" true (Value.compare (v_str "a") (v_str "b") < 0)

let test_value_roundtrip () =
  let vals = [ Value.Null; v_int (-42); Value.Float 3.5; v_str "hello" ] in
  let enc = Gg_util.Codec.Enc.create () in
  List.iter (Value.encode enc) vals;
  let dec = Gg_util.Codec.Dec.of_bytes (Gg_util.Codec.Enc.to_bytes enc) in
  List.iter
    (fun v -> Alcotest.(check bool) "value roundtrip" true (Value.equal v (Value.decode dec)))
    vals

let test_value_row_roundtrip () =
  let row = [| v_int 1; v_str "x"; Value.Null; Value.Float 2.5 |] in
  let row' = Value.decode_row (Value.encode_row row) in
  Alcotest.(check int) "arity" 4 (Array.length row');
  Array.iteri
    (fun i v -> Alcotest.(check bool) "cell" true (Value.equal v row'.(i)))
    row

let test_value_key_unique () =
  let k1 = Value.encode_key [| v_int 1; v_str "a" |] in
  let k2 = Value.encode_key [| v_int 1; v_str "b" |] in
  let k3 = Value.encode_key [| v_int 1; v_str "a" |] in
  Alcotest.(check bool) "differ" true (k1 <> k2);
  Alcotest.(check string) "stable" k1 k3

let prop_value_roundtrip =
  let gen =
    QCheck.Gen.(
      oneof
        [
          return Value.Null;
          map (fun i -> Value.Int i) int;
          map (fun f -> Value.Float f) (float_bound_exclusive 1e9);
          map (fun s -> Value.Str s) string_small;
        ])
  in
  QCheck.Test.make ~name:"value codec roundtrip" ~count:500 (QCheck.make gen)
    (fun v ->
      let enc = Gg_util.Codec.Enc.create () in
      Value.encode enc v;
      let dec = Gg_util.Codec.Dec.of_bytes (Gg_util.Codec.Enc.to_bytes enc) in
      Value.equal v (Value.decode dec))

(* [encode_key] builds its string in one exactly-sized pass; it must be
   byte-equal to encoding each column through [Codec.Enc]. *)
let codec_key key =
  let enc = Gg_util.Codec.Enc.create () in
  Array.iter (Value.encode enc) key;
  Bytes.to_string (Gg_util.Codec.Enc.to_bytes enc)

let test_value_key_edge_cases () =
  let check name key = Alcotest.(check string) name (codec_key key) (Value.encode_key key) in
  Alcotest.(check string) "empty key" "" (Value.encode_key [||]);
  check "null" [| Value.Null |];
  check "zero" [| v_int 0 |];
  check "negative" [| v_int (-1) |];
  check "-64/64 (one/two-byte zigzag boundary)" [| v_int (-64); v_int 64 |];
  check "min_int" [| v_int min_int |];
  check "max_int" [| v_int max_int |];
  check "floats" [| Value.Float 0.0; Value.Float (-0.0); Value.Float Float.nan;
                    Value.Float Float.infinity; Value.Float (-1.5e300) |];
  check "empty string" [| v_str "" |];
  check "127/128-byte strings (varint length boundary)"
    [| v_str (String.make 127 'a'); v_str (String.make 128 'b') |];
  check "multi-column" [| v_int 3; v_str "k"; Value.Null; Value.Float 2.5; v_int min_int |]

let prop_encode_key_matches_codec =
  let gen_value =
    QCheck.Gen.(
      oneof
        [
          return Value.Null;
          map (fun i -> Value.Int i) int;
          map (fun i -> Value.Int i) (oneofl [ min_int; max_int; -1; 0; 63; -65; 8191 ]);
          map (fun f -> Value.Float f) float;
          map (fun s -> Value.Str s) string_small;
          map (fun n -> Value.Str (String.make n 'x')) (int_range 100 20_000);
        ])
  in
  let print key = String.concat "," (Array.to_list (Array.map Value.to_string key)) in
  QCheck.Test.make ~name:"encode_key = Codec.Enc column encoding" ~count:1000
    (QCheck.make ~print QCheck.Gen.(array_size (int_range 0 6) gen_value))
    (fun key -> String.equal (Value.encode_key key) (codec_key key))

(* --- Csn --- *)

let test_csn_order () =
  let a = Csn.make ~ts:1 ~node:5 and b = Csn.make ~ts:2 ~node:0 in
  Alcotest.(check bool) "ts dominates" true (Csn.compare a b < 0);
  let c = Csn.make ~ts:1 ~node:6 in
  Alcotest.(check bool) "node breaks ties" true (Csn.compare a c < 0);
  Alcotest.(check bool) "equal" true (Csn.equal a (Csn.make ~ts:1 ~node:5))

(* --- Schema --- *)

let test_schema_create () =
  let s = schema_kv () in
  Alcotest.(check int) "arity" 2 (Schema.arity s);
  Alcotest.(check bool) "col_index k" true (Schema.col_index s "k" = Some 0);
  Alcotest.(check bool) "col_index missing" true (Schema.col_index s "zz" = None);
  Alcotest.(check bool) "key col" true (Schema.is_key_col s 0);
  Alcotest.(check bool) "non-key col" false (Schema.is_key_col s 1)

let test_schema_invalid () =
  Alcotest.(check bool) "dup column" true
    (try
       ignore
         (Schema.create ~name:"t"
            ~columns:[ { Schema.name = "a"; ty = TInt }; { name = "a"; ty = TInt } ]
            ~key:[ "a" ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "unknown key" true
    (try
       ignore
         (Schema.create ~name:"t"
            ~columns:[ { Schema.name = "a"; ty = TInt } ]
            ~key:[ "b" ]);
       false
     with Invalid_argument _ -> true)

let test_schema_validate_row () =
  let s = schema_kv () in
  Alcotest.(check bool) "ok" true (Schema.validate_row s [| v_int 1; v_str "a" |] = Ok ());
  Alcotest.(check bool) "null non-key ok" true
    (Schema.validate_row s [| v_int 1; Value.Null |] = Ok ());
  Alcotest.(check bool) "null key rejected" true
    (Result.is_error (Schema.validate_row s [| Value.Null; v_str "a" |]));
  Alcotest.(check bool) "wrong type" true
    (Result.is_error (Schema.validate_row s [| v_str "x"; v_str "a" |]));
  Alcotest.(check bool) "wrong arity" true
    (Result.is_error (Schema.validate_row s [| v_int 1 |]))

(* --- Table --- *)

let make_table n =
  let t = Table.create (schema_kv ()) in
  for i = 0 to n - 1 do
    Table.load t [| v_int i; v_str (Printf.sprintf "v%d" i) |]
  done;
  t

let key i = Value.encode_key [| v_int i |]

let test_table_load_find () =
  let t = make_table 10 in
  Alcotest.(check int) "live" 10 (Table.live_count t);
  (match Table.find_live t (key 5) with
  | Some e -> Alcotest.(check bool) "data" true (Value.equal e.Table.data.(1) (v_str "v5"))
  | None -> Alcotest.fail "missing row");
  Alcotest.(check bool) "absent" true (Table.find t (key 99) = None)

let test_table_duplicate_load () =
  let t = make_table 3 in
  Alcotest.check_raises "duplicate" (Invalid_argument "Table.load: duplicate key")
    (fun () -> Table.load t [| v_int 1; v_str "dup" |])

let test_table_delete_tombstone () =
  let t = make_table 5 in
  let e = Option.get (Table.find t (key 2)) in
  Table.delete t e;
  Alcotest.(check int) "live shrank" 4 (Table.live_count t);
  Alcotest.(check int) "total keeps tombstone" 5 (Table.total_count t);
  Alcotest.(check bool) "find sees tombstone" true (Table.find t (key 2) <> None);
  Alcotest.(check bool) "find_live misses" true (Table.find_live t (key 2) = None);
  (* Scan skips tombstones. *)
  let seen = ref 0 in
  Table.scan t ~f:(fun _ -> incr seen);
  Alcotest.(check int) "scan skips" 4 !seen

let test_table_revive () =
  let t = make_table 3 in
  let e = Option.get (Table.find t (key 1)) in
  Table.delete t e;
  Table.revive t e [| v_int 1; v_str "back" |];
  Alcotest.(check int) "live restored" 3 (Table.live_count t);
  match Table.find_live t (key 1) with
  | Some e -> Alcotest.(check bool) "new data" true (Value.equal e.Table.data.(1) (v_str "back"))
  | None -> Alcotest.fail "revive failed"

let test_table_insert_committed () =
  let t = make_table 2 in
  let hdr = Row_header.create () in
  Row_header.stamp hdr ~sen:1 ~csn:(Csn.make ~ts:9 ~node:1) ~cen:1;
  let e =
    Table.insert_committed t ~key:[| v_int 50 |] ~key_str:(key 50)
      ~data:[| v_int 50; v_str "new" |]
      ~header:hdr
  in
  Alcotest.(check int) "live" 3 (Table.live_count t);
  Alcotest.(check bool) "returns the installed entry" true
    (match Table.find t (key 50) with Some f -> f == e | None -> false);
  Alcotest.(check bool) "dup insert rejected" true
    (try
       ignore
         (Table.insert_committed t ~key:[| v_int 50 |] ~key_str:(key 50)
            ~data:[| v_int 50; v_str "x" |]
            ~header:(Row_header.create ()));
       false
     with Invalid_argument _ -> true)

let test_table_temp () =
  let t = make_table 2 in
  let e1 = Table.temp_add t ~key:[| v_int 100 |] ~key_str:(key 100) in
  let e2 = Table.temp_add t ~key:[| v_int 100 |] ~key_str:(key 100) in
  Alcotest.(check bool) "same temp entry" true (e1 == e2);
  Alcotest.(check bool) "temp_find hits" true (Table.temp_find t (key 100) <> None);
  Alcotest.(check bool) "temp invisible to find" true (Table.find t (key 100) = None);
  Table.temp_clear t;
  Alcotest.(check bool) "cleared" true (Table.temp_find t (key 100) = None)

let test_table_scan_order () =
  let t = Table.create (schema_kv ()) in
  List.iter
    (fun i -> Table.load t [| v_int i; v_str "x" |])
    [ 5; 1; 9; 3; 7 ];
  let keys = ref [] in
  Table.scan t ~f:(fun e ->
      match e.Table.key.(0) with
      | Value.Int i -> keys := i :: !keys
      | _ -> ());
  Alcotest.(check (list int)) "ascending" [ 1; 3; 5; 7; 9 ] (List.rev !keys)

(* A scan walks the ordered index as it stood when the scan began: a
   row its callback inserts is not visited, a later row it deletes still
   is, and the next scan sees both changes. *)
let test_table_scan_snapshot () =
  let t = Table.create (schema_kv ()) in
  List.iter (fun i -> Table.load t [| v_int i; v_str "x" |]) [ 0; 2; 4; 6; 8; 10 ];
  let int_key (e : Table.entry) =
    match e.Table.key.(0) with Value.Int i -> i | _ -> -1
  in
  let visited = ref [] in
  Table.scan t ~f:(fun e ->
      visited := int_key e :: !visited;
      if int_key e = 2 then begin
        ignore
          (Table.insert_committed t ~key:[| v_int 5 |] ~key_str:(key 5)
             ~data:[| v_int 5; v_str "new" |] ~header:(Row_header.create ()));
        Table.delete t (Option.get (Table.find t (key 8)))
      end);
  Alcotest.(check (list int)) "the scan's own rows" [ 0; 2; 4; 6; 8; 10 ]
    (List.rev !visited);
  let after = ref [] in
  Table.scan t ~f:(fun e -> after := int_key e :: !after);
  Alcotest.(check (list int)) "the next scan" [ 0; 2; 4; 5; 6; 10 ] (List.rev !after)

let test_table_scan_range () =
  let t = make_table 10 in
  let got = ref [] in
  Table.scan_range t ~lo:[| v_int 3 |] ~hi:[| v_int 6 |] (fun e ->
      match e.Table.key.(0) with Value.Int i -> got := i :: !got | _ -> ());
  Alcotest.(check (list int)) "range" [ 3; 4; 5; 6 ] (List.rev !got)

let test_table_scan_prefix () =
  let s =
    Schema.create ~name:"two"
      ~columns:
        [
          { Schema.name = "a"; ty = TInt };
          { name = "b"; ty = TInt };
          { name = "v"; ty = TStr };
        ]
      ~key:[ "a"; "b" ]
  in
  let t = Table.create s in
  for a = 0 to 2 do
    for b = 0 to 3 do
      Table.load t [| v_int a; v_int b; v_str "x" |]
    done
  done;
  let got = ref 0 in
  Table.scan_prefix t ~prefix:[| v_int 1 |] (fun _ -> incr got);
  Alcotest.(check int) "prefix matches" 4 !got

let test_table_scan_range_leading_column () =
  let s =
    Schema.create ~name:"two"
      ~columns:[ { Schema.name = "a"; ty = TInt }; { name = "b"; ty = TInt } ]
      ~key:[ "a"; "b" ]
  in
  let t = Table.create s in
  for a = 0 to 3 do
    for b = 0 to 2 do
      Table.load t [| v_int a; v_int b |]
    done
  done;
  let got = ref [] in
  Table.scan_range t ~lo:[| v_int 1 |] ~hi:[| v_int 2 |] (fun e ->
      match e.Table.key with
      | [| Value.Int a; Value.Int b |] -> got := (a, b) :: !got
      | _ -> ());
  Alcotest.(check (list (pair int int)))
    "one-column bounds cover every b"
    [ (1, 0); (1, 1); (1, 2); (2, 0); (2, 1); (2, 2) ]
    (List.rev !got)

(* Scan equivalence: [scan_range ?lo ?hi] and [scan_prefix] visit
   exactly the subsequence of [scan] that a plain per-key predicate
   accepts, in the same order. Tables have 1-3 Int key columns over a
   small domain (so bounds often equal a key), after random deletes and
   revives; bounds are absent, an existing key or one of its prefixes,
   or random Int/Float arrays of any length up to the key's, including
   [lo > hi]. *)

(* lexicographic; a shorter array sorts before the arrays it prefixes *)
let rec lex_compare a b i =
  if i >= Array.length a || i >= Array.length b then
    compare (Array.length a - i) (Array.length b - i)
  else
    let c = Value.compare a.(i) b.(i) in
    if c <> 0 then c else lex_compare a b (i + 1)

let ref_in_range ?lo ?hi key =
  (match lo with None -> true | Some l -> lex_compare key l 0 >= 0)
  &&
  match hi with
  | None -> true
  | Some h -> lex_compare (Array.sub key 0 (Array.length h)) h 0 <= 0

let ref_has_prefix ~prefix key =
  lex_compare (Array.sub key 0 (Array.length prefix)) prefix 0 = 0

let gen_scan_case =
  QCheck.Gen.(
    let* width = int_range 1 3 in
    let* keys = list_size (int_range 0 40) (array_size (return width) (int_range 0 4)) in
    let* deletes = list_size (int_range 0 15) nat in
    let* revives = list_size (int_range 0 8) nat in
    let bound_value =
      oneof
        [
          map v_int (int_range (-1) 5);
          map (fun i -> Value.Float (float_of_int i)) (int_range 0 4);
          map (fun i -> Value.Float (float_of_int i +. 0.5)) (int_range (-1) 4);
        ]
    in
    let bound =
      oneof
        [
          return None;
          (let* n = int_range 1 width in
           map (fun a -> Some a) (array_size (return n) bound_value));
          (* an existing key, or one of its prefixes *)
          (let* i = nat in
           let* n = int_range 1 width in
           return
             (match keys with
             | [] -> None
             | _ ->
               let k = List.nth keys (i mod List.length keys) in
               Some (Array.map v_int (Array.sub k 0 n))));
        ]
    in
    let* lo = bound in
    let* hi = bound in
    let* prefix = bound in
    return (width, keys, deletes, revives, lo, hi, prefix))

let print_scan_case (width, keys, deletes, revives, lo, hi, prefix) =
  let arr a = "[" ^ String.concat ";" (Array.to_list (Array.map Value.to_string a)) ^ "]" in
  let opt = function None -> "-" | Some a -> arr a in
  Printf.sprintf "width=%d keys=%s deletes=%s revives=%s lo=%s hi=%s prefix=%s" width
    (String.concat " "
       (List.map (fun k -> arr (Array.map v_int k)) keys))
    (String.concat "," (List.map string_of_int deletes))
    (String.concat "," (List.map string_of_int revives))
    (opt lo) (opt hi) (opt prefix)

let prop_scans_match_filtered_scan =
  QCheck.Test.make ~name:"range/prefix scans = filtered full scan" ~count:1000
    (QCheck.make ~print:print_scan_case gen_scan_case)
    (fun (width, keys, deletes, revives, lo, hi, prefix) ->
      let key_cols = List.init width (fun i -> Printf.sprintf "k%d" i) in
      let schema =
        Schema.create ~name:"t"
          ~columns:
            (List.map (fun c -> { Schema.name = c; ty = Schema.TInt }) key_cols
            @ [ { Schema.name = "v"; ty = Schema.TStr } ])
          ~key:key_cols
      in
      let t = Table.create schema in
      let row k tag = Array.append (Array.map v_int k) [| v_str tag |] in
      List.iter
        (fun k ->
          let key_str = Value.encode_key (Array.map v_int k) in
          if Table.find t key_str = None then Table.load t (row k "a"))
        keys;
      let entries () =
        let acc = ref [] in
        Table.iter_all t ~f:(fun e -> acc := e :: !acc);
        List.sort (fun a b -> compare a.Table.key_str b.Table.key_str) !acc
      in
      let nth_entry i =
        match entries () with [] -> None | es -> Some (List.nth es (i mod List.length es))
      in
      List.iter (fun i -> Option.iter (Table.delete t) (nth_entry i)) deletes;
      List.iter
        (fun i ->
          Option.iter
            (fun e ->
              if e.Table.header.Row_header.deleted then
                Table.revive t e (Array.append e.Table.key [| v_str "r" |]))
            (nth_entry i))
        revives;
      let all = ref [] in
      Table.scan t ~f:(fun e -> all := e.Table.key :: !all);
      let all = List.rev !all in
      let visited scan =
        let acc = ref [] in
        scan (fun e -> acc := e.Table.key :: !acc);
        List.rev !acc
      in
      let range = visited (Table.scan_range t ?lo ?hi) in
      let range_ok = range = List.filter (ref_in_range ?lo ?hi) all in
      let prefix_ok =
        match prefix with
        | None -> true
        | Some prefix ->
          visited (Table.scan_prefix t ~prefix)
          = List.filter (ref_has_prefix ~prefix) all
      in
      range_ok && prefix_ok)

(* Each field of the digest's stream, changed alone on one row of a
   copy, moves the digest. A tombstone streams no data, so the key is
   changed on a tombstone; a live row with empty data streams none
   either, so only the flag tells it from a tombstone. *)
let test_table_digest_sensitivity () =
  let t1 = make_table 5 in
  let d = Table.digest in
  Alcotest.(check string) "identical tables" (d t1) (d (make_table 5));
  let changed what f =
    let t2 = make_table 5 in
    f t2 (Option.get (Table.find t2 (key 0)));
    Table.touch t2;
    Alcotest.(check bool) (what ^ " change detected") true (d t1 <> d t2)
  in
  changed "data" (fun t e -> Table.write t e [| v_int 0; v_str "changed" |]);
  changed "sen" (fun _ e -> e.Table.header.Row_header.sen <- 3);
  changed "cen" (fun _ e -> e.Table.header.Row_header.cen <- 3);
  changed "csn" (fun _ e ->
      e.Table.header.Row_header.csn <- Csn.make ~ts:1 ~node:0);
  let renamed =
    let columns = Array.to_list (schema_kv ()).Schema.columns in
    Table.create (Schema.create ~name:"kv2" ~columns ~key:[ "k" ])
  in
  for i = 0 to 4 do
    Table.load renamed [| v_int i; v_str (Printf.sprintf "v%d" i) |]
  done;
  Alcotest.(check bool) "table name change detected" true (d t1 <> d renamed);
  let tombstone_at i =
    let t = make_table 4 in
    Table.load t [| v_int i; v_str "x" |];
    Table.delete t (Option.get (Table.find t (key i)));
    t
  in
  Alcotest.(check bool) "tombstone key change detected" true
    (d (tombstone_at 4) <> d (tombstone_at 5));
  let emptied () =
    let t = make_table 5 in
    Table.write t (Option.get (Table.find t (key 0))) [||];
    t
  in
  let deleted = emptied () in
  Table.delete deleted (Option.get (Table.find deleted (key 0)));
  Alcotest.(check bool) "tombstone flag change detected" true
    (d (emptied ()) <> d deleted);
  let tombstone_data = tombstone_at 4 in
  Table.write tombstone_data (Option.get (Table.find tombstone_data (key 4)))
    [| v_int 4; v_str "y" |];
  Alcotest.(check string) "a tombstone's data is not digested"
    (d (tombstone_at 4)) (d tombstone_data)

(* The digest walks the rows in [key_str] order, so neither the order
   rows arrived in nor the primary index's growth history (a larger
   capacity after a purge puts rows in other slots) can move it. *)
let test_table_digest_order_free () =
  let n = 800 in
  let row i = [| v_int i; v_str (Printf.sprintf "v%d" i) |] in
  let ascending = Table.create (schema_kv ()) in
  for i = 0 to n - 1 do
    Table.load ascending (row i)
  done;
  let descending = Table.create (schema_kv ()) in
  for i = n - 1 downto 0 do
    Table.load descending (row i)
  done;
  let grown = Table.create (schema_kv ()) in
  for i = 0 to (4 * n) - 1 do
    Table.load grown (row i)
  done;
  for i = n to (4 * n) - 1 do
    Table.delete grown (Option.get (Table.find grown (key i)))
  done;
  ignore (Table.purge_tombstones grown ~before_cen:max_int);
  Alcotest.(check int) "purged to the same rows" n (Table.total_count grown);
  Alcotest.(check string) "insertion order" (Table.digest ascending)
    (Table.digest descending);
  Alcotest.(check string) "pk_grow history" (Table.digest ascending)
    (Table.digest grown)

(* The stream is hashed in row-aligned 1 KiB chunks, and the rows after
   the last cut form a partial chunk. Every table size over a span wider
   than a chunk puts the last row at each position of its chunk, so a
   digest that dropped the partial chunk would miss some change here. *)
let test_table_digest_last_chunk () =
  for n = 200 to 300 do
    let a = make_table n and b = make_table n in
    Table.write b
      (Option.get (Table.find b (key (n - 1))))
      [| v_int (n - 1); v_str "changed" |];
    if Table.digest a = Table.digest b then
      Alcotest.failf "%d rows: a change to the last row left the digest" n
  done

(* A cold digest allocates the sort's array of entries and one small
   encoder, not a buffer of the table's serialized size. *)
let test_table_digest_bounded_alloc () =
  let n = 20_000 in
  let t = Table.create (schema_kv ()) in
  for i = 0 to n - 1 do
    Table.load t [| v_int i; v_str (String.make 200 (Char.chr (97 + (i mod 26)))) |]
  done;
  (* promote the loaded rows now, so no minor collection during the
     digest counts them *)
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.major_words in
  ignore (Table.digest t);
  let words = (Gc.quick_stat ()).Gc.major_words -. before in
  if words > float_of_int (4 * n) then
    Alcotest.failf "cold digest of %d rows allocated %.0f major words" n words

(* A copy shares its source's row arrays and copies only the entry, the
   header and the index slots. *)
let test_table_copy_bounded_alloc () =
  let n = 20_000 and width = 11 in
  let t =
    Table.create
      (Schema.create ~name:"wide"
         ~columns:
           (List.init width (fun c -> { Schema.name = Printf.sprintf "c%d" c; ty = TInt }))
         ~key:[ "c0" ])
  in
  for i = 0 to n - 1 do
    Table.load t (Array.init width (fun c -> v_int (i + c)))
  done;
  (* A major collection on each side settles the counters: the direct
     major allocations (the index arrays) otherwise show late. *)
  let allocated () =
    Gc.full_major ();
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let before = allocated () in
  let t2 = Table.copy t in
  let words = allocated () -. before in
  if words > float_of_int (18 * n) then
    Alcotest.failf "copying %d rows of %d columns allocated %.1f words per row" n
      width (words /. float_of_int n);
  Alcotest.(check string) "same digest" (Table.digest t) (Table.digest t2);
  let shared = ref 0 in
  Table.iter_all t2 ~f:(fun e ->
      let src = Option.get (Table.find t e.Table.key_str) in
      if src.Table.data == e.Table.data && src.Table.header != e.Table.header then
        incr shared);
  Alcotest.(check int) "rows shared, headers not" n !shared

(* Filling a copy's secondary indexes sorts its live rows once; that
   array is the copy's ordered index, so its first scan sorts nothing
   and visits the rows in the source's order. *)
let test_table_copy_keeps_its_sort () =
  let n = 2_000 in
  let t = Table.create (schema_kv ()) in
  (* descending loads, so slot order is not key order *)
  for i = n - 1 downto 0 do
    Table.load t [| v_int i; v_str (string_of_int (i mod 7)) |]
  done;
  Table.create_index t ~name:"by_v" ~cols:[ "v" ];
  let t2 = Table.copy t in
  let keys t =
    let acc = ref [] in
    Table.scan t ~f:(fun e -> acc := e.Table.key_str :: !acc);
    !acc
  in
  let visited = ref 0 in
  let count e = ignore e; incr visited in
  let before = Gc.minor_words () in
  Table.scan t2 ~f:count;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "first scan visits every row" n !visited;
  if words > 64. then
    Alcotest.failf "the copy's first scan allocated %.0f words: it sorted again" words;
  Alcotest.(check (list string)) "scan order" (keys t) (keys t2);
  Alcotest.(check int) "index filled" (n / 7 + 1)
    (List.length (Table.index_lookup t2 ~name:"by_v" ~key:[| v_str "0" |]))

(* --- Db --- *)

let test_db_catalog () =
  let db = Db.create () in
  let _ =
    Db.create_table db ~name:"a"
      ~columns:[ { Schema.name = "k"; ty = TInt } ]
      ~key:[ "k" ]
  in
  let _ =
    Db.create_table db ~name:"b"
      ~columns:[ { Schema.name = "k"; ty = TInt } ]
      ~key:[ "k" ]
  in
  Alcotest.(check (list string)) "names sorted" [ "a"; "b" ] (Db.table_names db);
  Alcotest.(check bool) "get" true (Db.get_table db "a" <> None);
  Alcotest.(check bool) "missing" true (Db.get_table db "zz" = None);
  Alcotest.(check bool) "dup rejected" true
    (try
       ignore
         (Db.create_table db ~name:"a"
            ~columns:[ { Schema.name = "k"; ty = TInt } ]
            ~key:[ "k" ]);
       false
     with Invalid_argument _ -> true)

let test_db_digest_replicas () =
  let build () =
    let db = Db.create () in
    let t =
      Db.create_table db ~name:"kv"
        ~columns:[ { Schema.name = "k"; ty = TInt }; { name = "v"; ty = TStr } ]
        ~key:[ "k" ]
    in
    for i = 0 to 20 do
      Table.load t [| v_int i; v_str (string_of_int (i * i)) |]
    done;
    db
  in
  let a = build () and b = build () in
  Alcotest.(check string) "replica digests equal" (Db.digest a) (Db.digest b);
  let t = Db.get_table_exn b "kv" in
  let e = Option.get (Table.find t (Value.encode_key [| v_int 3 |])) in
  e.Table.header.Row_header.cen <- 7;
  (* digests are cached behind the table's mutation counter: an
     in-place header stamp is invisible until the mutator announces it
     with [Table.touch] (as the merge path does) *)
  Alcotest.(check string) "stale until touched" (Db.digest a) (Db.digest b);
  Table.touch t;
  Alcotest.(check bool) "header divergence detected" true (Db.digest a <> Db.digest b)

(* --- Secondary indexes --- *)

let people_table () =
  let s =
    Schema.create ~name:"people"
      ~columns:
        [ { Schema.name = "id"; ty = TInt }; { name = "city"; ty = TStr };
          { name = "age"; ty = TInt } ]
      ~key:[ "id" ]
  in
  let t = Table.create s in
  List.iteri
    (fun i (city, age) -> Table.load t [| v_int i; v_str city; v_int age |])
    [ ("oslo", 30); ("oslo", 40); ("kyoto", 30); ("kyoto", 50); ("lima", 30) ];
  t

let test_index_lookup () =
  let t = people_table () in
  Table.create_index t ~name:"by_city" ~cols:[ "city" ];
  Alcotest.(check int) "oslo" 2
    (List.length (Table.index_lookup t ~name:"by_city" ~key:[| v_str "oslo" |]));
  Alcotest.(check int) "lima" 1
    (List.length (Table.index_lookup t ~name:"by_city" ~key:[| v_str "lima" |]));
  Alcotest.(check int) "missing" 0
    (List.length (Table.index_lookup t ~name:"by_city" ~key:[| v_str "mars" |]))

let test_index_composite () =
  let t = people_table () in
  Table.create_index t ~name:"by_city_age" ~cols:[ "city"; "age" ];
  Alcotest.(check int) "kyoto/30" 1
    (List.length (Table.index_lookup t ~name:"by_city_age" ~key:[| v_str "kyoto"; v_int 30 |]))

let test_index_tracks_writes () =
  let t = people_table () in
  Table.create_index t ~name:"by_city" ~cols:[ "city" ];
  let e = Option.get (Table.find t (Value.encode_key [| v_int 0 |])) in
  Table.write t e [| v_int 0; v_str "kyoto"; v_int 30 |];
  Alcotest.(check int) "moved out of oslo" 1
    (List.length (Table.index_lookup t ~name:"by_city" ~key:[| v_str "oslo" |]));
  Alcotest.(check int) "into kyoto" 3
    (List.length (Table.index_lookup t ~name:"by_city" ~key:[| v_str "kyoto" |]));
  Table.delete t e;
  Alcotest.(check int) "delete unindexes" 2
    (List.length (Table.index_lookup t ~name:"by_city" ~key:[| v_str "kyoto" |]));
  (* a write to the tombstone leaves it out of the index, so the revive
     below indexes it once *)
  Table.write t e [| v_int 0; v_str "lima"; v_int 30 |];
  Table.revive t e [| v_int 0; v_str "lima"; v_int 31 |];
  Alcotest.(check int) "revive reindexes" 2
    (List.length (Table.index_lookup t ~name:"by_city" ~key:[| v_str "lima" |]))

let test_index_copy_preserved () =
  let t = people_table () in
  Table.create_index t ~name:"by_city" ~cols:[ "city" ];
  let t2 = Table.copy t in
  Alcotest.(check int) "copied index works" 2
    (List.length (Table.index_lookup t2 ~name:"by_city" ~key:[| v_str "oslo" |]))

let test_index_invalid () =
  let t = people_table () in
  Alcotest.(check bool) "unknown column" true
    (try Table.create_index t ~name:"x" ~cols:[ "nope" ]; false
     with Invalid_argument _ -> true);
  Table.create_index t ~name:"dup" ~cols:[ "city" ];
  Alcotest.(check bool) "duplicate name" true
    (try Table.create_index t ~name:"dup" ~cols:[ "age" ]; false
     with Invalid_argument _ -> true)

let test_purge_tombstones () =
  let t = make_table 10 in
  List.iter
    (fun i ->
      let e = Option.get (Table.find t (key i)) in
      Row_header.stamp e.Table.header ~sen:0 ~csn:(Csn.make ~ts:i ~node:0) ~cen:i;
      Table.delete t e)
    [ 1; 2; 3 ];
  Alcotest.(check int) "3 tombstones" 10 (Table.total_count t);
  let purged = Table.purge_tombstones t ~before_cen:3 in
  Alcotest.(check int) "purged two (cen 1,2)" 2 purged;
  Alcotest.(check int) "one tombstone left" 8 (Table.total_count t);
  Alcotest.(check bool) "cen-3 tombstone kept" true (Table.find t (key 3) <> None);
  Alcotest.(check bool) "purged key gone entirely" true (Table.find t (key 1) = None)

(* A table without tombstones purges nothing and is not touched: its
   version (the digest cache's key) stays put. A revived row is live
   again, so it leaves no tombstone either. *)
let test_purge_without_tombstones () =
  let t = make_table 10 in
  let v0 = Table.version t in
  Alcotest.(check int) "nothing to purge" 0
    (Table.purge_tombstones t ~before_cen:max_int);
  Alcotest.(check int) "version unchanged" v0 (Table.version t);
  let e = Option.get (Table.find t (key 4)) in
  Table.delete t e;
  Table.revive t e (Array.copy e.Table.data);
  let v1 = Table.version t in
  Alcotest.(check int) "revived: nothing to purge" 0
    (Table.purge_tombstones t ~before_cen:max_int);
  Alcotest.(check int) "version unchanged after revive" v1 (Table.version t);
  Alcotest.(check int) "all rows kept" 10 (Table.total_count t)

(* Model-based check of the primary index: random sequences of loads,
   committed inserts, deletes, revives, tombstone purges and copies
   against an association-list model. The key universe outgrows the
   initial capacity, so runs wrap past the last slot, the index grows,
   and range deletes followed by purges remove whole clusters (backward
   shift). After every step the table must agree with the model on
   [find], [find_live], the counts, the [iter_all] set and the digest of
   a table rebuilt from the model in the opposite key order. *)
type pk_step =
  | Load of int * int  (* first pool index, count *)
  | Insert of int * int  (* pool index, cen *)
  | Delete of int * int  (* first pool index, count *)
  | Revive of int * int  (* pool index, data tag *)
  | Purge of int  (* before_cen *)
  | Copy

type model_row = { m_deleted : bool; m_data : string; m_cen : int option }
(* [m_cen = None]: a loaded row's fresh header *)

(* Keys 0..1199, then a crowd of 48 keys whose hashes all fall in the
   last 12 of 1024 slots: loaded together they form one run that wraps
   past the end of the slot array (at the initial capacity, and for about
   half of them again after the first doubling). *)
let pk_pool =
  let crowd =
    Seq.ints 1200
    |> Seq.filter (fun k -> Table.key_hash (key k) land 1023 >= 1012)
    |> Seq.take 48 |> List.of_seq
  in
  Array.of_list (List.init 1200 Fun.id @ crowd)

let pk_universe = Array.length pk_pool

let print_pk_step = function
  | Load (k, n) -> Printf.sprintf "Load(%d,%d)" k n
  | Insert (k, c) -> Printf.sprintf "Insert(%d,cen %d)" k c
  | Delete (k, n) -> Printf.sprintf "Delete(%d,%d)" k n
  | Revive (k, d) -> Printf.sprintf "Revive(%d,%d)" k d
  | Purge c -> Printf.sprintf "Purge(%d)" c
  | Copy -> "Copy"

let gen_pk_step =
  let key = QCheck.Gen.int_range 0 (pk_universe - 1) in
  QCheck.Gen.(
    frequency
      [
        (3, map2 (fun k n -> Load (k, n)) key (int_range 1 500));
        (3, map2 (fun k c -> Insert (k, c)) key (int_range 0 9));
        (3, map2 (fun k n -> Delete (k, n)) key (int_range 1 300));
        (2, map2 (fun k d -> Revive (k, d)) key (int_range 0 99));
        (2, map (fun c -> Purge c) (int_range 0 10));
        (1, return Copy);
      ])

let stamped cen =
  let h = Row_header.create () in
  Row_header.stamp h ~sen:cen ~csn:(Csn.make ~ts:cen ~node:1) ~cen;
  h

let row_of k data = [| v_int k; v_str data |]

(* The text column, the last one under either keying below. *)
let data_of (e : Table.entry) =
  match e.Table.data.(Array.length e.Table.data - 1) with
  | Value.Str s -> s
  | _ -> "?"

(* How a pool key [k] becomes a table key. [two_col] spreads the pool
   over [(k mod 7, k)], so key order is not pool order and a one-column
   bound covers a run of whole groups. *)
type keying = { key_of : int -> Value.t array; schema : unit -> Schema.t }

let one_col = { key_of = (fun k -> [| v_int k |]); schema = schema_kv }

let two_col =
  {
    key_of = (fun k -> [| v_int (k mod 7); v_int k |]);
    schema =
      (fun () ->
        Schema.create ~name:"kv2"
          ~columns:
            [
              { Schema.name = "g"; ty = Schema.TInt };
              { name = "k"; ty = TInt };
              { name = "v"; ty = TStr };
            ]
          ~key:[ "g"; "k" ]);
  }

(* A fresh table holding exactly the model's rows, built in descending
   key order. *)
let table_of_model model =
  let t = Table.create (schema_kv ()) in
  List.iter
    (fun (k, r) ->
      (match r.m_cen with
      | None -> Table.load t (row_of k r.m_data)
      | Some cen ->
        ignore
          (Table.insert_committed t ~key:[| v_int k |] ~key_str:(key k)
             ~data:(row_of k r.m_data) ~header:(stamped cen)));
      if r.m_deleted then Table.delete t (Option.get (Table.find t (key k))))
    (List.sort (fun (a, _) (b, _) -> compare b a) model);
  t

let check_against_model t model =
  let rows = Hashtbl.of_seq (List.to_seq model) in
  Array.iter (fun k ->
    match (Hashtbl.find_opt rows k, Table.find t (key k)) with
    | None, None -> ()
    | None, Some _ -> QCheck.Test.fail_reportf "key %d: found, not in model" k
    | Some _, None -> QCheck.Test.fail_reportf "key %d: in model, not found" k
    | Some r, Some e ->
      if e.Table.key_str <> key k || data_of e <> r.m_data
         || e.Table.header.Row_header.deleted <> r.m_deleted
      then QCheck.Test.fail_reportf "key %d: wrong entry" k;
      if (Table.find_live t (key k) <> None) = r.m_deleted then
        QCheck.Test.fail_reportf "key %d: find_live disagrees" k)
    pk_pool;
  let live = List.length (List.filter (fun (_, r) -> not r.m_deleted) model) in
  if Table.total_count t <> List.length model then
    QCheck.Test.fail_reportf "total_count %d, model %d" (Table.total_count t)
      (List.length model);
  if Table.live_count t <> live then
    QCheck.Test.fail_reportf "live_count %d, model %d" (Table.live_count t) live;
  let seen = ref [] in
  Table.iter_all t ~f:(fun e ->
      seen := (e.Table.key_str, e.Table.header.Row_header.deleted, data_of e) :: !seen);
  let expected = List.map (fun (k, r) -> (key k, r.m_deleted, r.m_data)) model in
  if List.sort compare !seen <> List.sort compare expected then
    QCheck.Test.fail_reportf "iter_all set differs from the model";
  if Table.digest t <> Table.digest (table_of_model model) then
    QCheck.Test.fail_reportf "digest differs from the model's"

let apply_pk_step ?(keying = one_col) t model step =
  let key k = Value.encode_key (keying.key_of k) in
  let row_of k data = Array.append (keying.key_of k) [| v_str data |] in
  let range i n =
    List.init n (fun j -> i + j)
    |> List.filter_map (fun i -> if i < pk_universe then Some pk_pool.(i) else None)
  in
  match step with
  | Load (k0, n) ->
    List.fold_left
      (fun model k ->
        if List.mem_assoc k model then begin
          (match Table.load t (row_of k "dup") with
          | () -> QCheck.Test.fail_reportf "load over key %d accepted" k
          | exception Invalid_argument _ -> ());
          model
        end
        else begin
          Table.load t (row_of k "l");
          (k, { m_deleted = false; m_data = "l"; m_cen = None }) :: model
        end)
      model (range k0 n)
  | Insert (i, cen) -> (
    let k = pk_pool.(i) in
    let data = Printf.sprintf "i%d" cen in
    let install () =
      ignore
        (Table.insert_committed t ~key:(keying.key_of k) ~key_str:(key k)
           ~data:(row_of k data) ~header:(stamped cen))
    in
    match List.assoc_opt k model with
    | Some { m_deleted = false; _ } ->
      (match install () with
      | () -> QCheck.Test.fail_reportf "insert over live key %d accepted" k
      | exception Invalid_argument _ -> ());
      model
    | Some _ | None ->
      install ();
      (k, { m_deleted = false; m_data = data; m_cen = Some cen })
      :: List.remove_assoc k model)
  | Delete (k0, n) ->
    List.fold_left
      (fun model k ->
        match List.assoc_opt k model with
        | Some r ->
          Table.delete t (Option.get (Table.find t (key k)));
          (k, { r with m_deleted = true }) :: List.remove_assoc k model
        | None -> model)
      model (range k0 n)
  | Revive (i, d) -> (
    let k = pk_pool.(i) in
    match List.assoc_opt k model with
    | Some r ->
      let data = Printf.sprintf "r%d" d in
      Table.revive t (Option.get (Table.find t (key k))) (row_of k data);
      (k, { r with m_deleted = false; m_data = data }) :: List.remove_assoc k model
    | None -> model)
  | Purge before_cen ->
    let fresh_cen = (Row_header.create ()).Row_header.cen in
    let keep (_, r) =
      not (r.m_deleted && Option.value r.m_cen ~default:fresh_cen < before_cen)
    in
    let kept = List.filter keep model in
    let purged = Table.purge_tombstones t ~before_cen in
    if purged <> List.length model - List.length kept then
      QCheck.Test.fail_reportf "purged %d, model %d" purged
        (List.length model - List.length kept);
    kept
  | Copy -> model

let prop_pk_index_matches_model =
  QCheck.Test.make ~name:"primary index = assoc-list model" ~count:60
    (QCheck.make
       ~print:(fun steps -> String.concat "; " (List.map print_pk_step steps))
       QCheck.Gen.(list_size (int_range 1 40) gen_pk_step))
    (fun steps ->
      let t = ref (Table.create (schema_kv ())) in
      ignore
        (List.fold_left
           (fun model step ->
             let model = apply_pk_step !t model step in
             if step = Copy then t := Table.copy !t;
             check_against_model !t model;
             model)
           [] steps);
      true)

(* The lazy ordered index: the same random load / insert / delete /
   revive / purge / copy sequences, plus [create_index], with the first
   ordered read at a random step. From that step on, after every step,
   [scan], [scan_range], [scan_prefix] and [index_lookup] must equal the
   live rows of [iter_all] sorted by key — so the steps before the read
   run with the index unbuilt, the read builds it, and the steps after it
   maintain it. A copy is checked alongside its source, whether it was
   taken before the build (both unbuilt) or after (source built, copy
   not, unless a secondary index made the copy keep its sort). Every sequence runs on one-column keys and again on the
   two-column keys of [two_col], whose bounds include composite ones and
   ones shorter than the key. Each check also ends a scan by raising
   from its callback, as the checker's corruption canary does, and scans
   the table again from inside a scan's callback, as the join does. *)
type lazy_step = Pk of pk_step | Index

(* [(lo, hi)] ranges and prefixes to check under each keying. *)
let ordered_bounds keying =
  let b = Array.map v_int in
  if keying == one_col then
    ( [ (Some (b [| 100 |]), Some (b [| 700 |])); (None, Some (b [| 40 |])) ],
      List.map (fun k -> b [| k |]) [ 0; 7; 1100; 1300 ] )
  else
    ( [
        (Some (b [| 2 |]), Some (b [| 4 |]));
        (Some (b [| 1; 600 |]), Some (b [| 5; 300 |]));
        (Some (b [| 3; 200 |]), None);
        (None, Some (b [| 0 |]));
        (Some (b [| 1; 1100 |]), Some (b [| 1; 1100 |]));
      ],
      [ b [| 3 |]; b [| 6 |]; b [| 2; 100 |]; b [| 9 |] ] )

let check_ordered_reads keying t =
  let live = ref [] in
  Table.iter_all t ~f:(fun e ->
      if not e.Table.header.Row_header.deleted then live := e :: !live);
  let live =
    List.map (fun e -> (e.Table.key, data_of e)) !live
    |> List.sort (fun (a, _) (b, _) -> lex_compare a b 0)
  in
  let keys = List.map fst live in
  let visited scan =
    let acc = ref [] in
    scan (fun e -> acc := e.Table.key :: !acc);
    List.rev !acc
  in
  let show keys =
    String.concat ";"
      (List.map
         (fun k -> String.concat "," (Array.to_list (Array.map Value.to_string k)))
         keys)
  in
  let expect what got want =
    if got <> want then
      QCheck.Test.fail_reportf "%s: [%s], sorted iter_all [%s]" what (show got)
        (show want)
  in
  let bound = function None -> "-" | Some b -> show [ b ] in
  (* A callback that raises ends the scan; the reads below then see the
     whole table again. *)
  let seen = ref 0 in
  (try Table.scan t ~f:(fun _ -> incr seen; if !seen = 2 then raise Exit)
   with Exit -> ());
  if !seen <> min 2 (List.length keys) then
    QCheck.Test.fail_reportf "raising scan visited %d rows" !seen;
  expect "scan" (visited (fun f -> Table.scan t ~f)) keys;
  let ranges, prefixes = ordered_bounds keying in
  List.iter
    (fun (lo, hi) ->
      expect
        (Printf.sprintf "scan_range %s..%s" (bound lo) (bound hi))
        (visited (Table.scan_range t ?lo ?hi))
        (List.filter (ref_in_range ?lo ?hi) keys))
    ranges;
  List.iter
    (fun prefix ->
      expect
        ("scan_prefix " ^ show [ prefix ])
        (visited (Table.scan_prefix t ~prefix))
        (List.filter (ref_has_prefix ~prefix) keys))
    prefixes;
  (* Scans nested in a scan's callback: a point range at every outer row
     and, at the first three, a whole second scan. *)
  let outer = ref 0 in
  expect "outer scan"
    (visited (fun f ->
         Table.scan t ~f:(fun e ->
             let key = e.Table.key in
             expect "nested point range"
               (visited (Table.scan_range t ~lo:key ~hi:key))
               [ key ];
             if !outer < 3 then
               expect "nested scan" (visited (fun f -> Table.scan t ~f)) keys;
             incr outer;
             f e)))
    keys;
  if Table.index_cols t ~name:"by_v" <> None then
    List.iter
      (fun v ->
        expect ("index_lookup " ^ v)
          (List.sort
             (fun a b -> lex_compare a b 0)
             (List.map
                (fun e -> e.Table.key)
                (Table.index_lookup t ~name:"by_v" ~key:[| v_str v |])))
          (List.filter_map (fun (k, d) -> if d = v then Some k else None) live))
      ("nope" :: List.sort_uniq compare (List.map snd live))

let prop_lazy_ordered_index =
  QCheck.Test.make ~name:"lazy ordered index = sorted live iter_all" ~count:60
    (QCheck.make
       ~print:(fun (steps, first_read) ->
         Printf.sprintf "first read at %d: %s" first_read
           (String.concat "; "
              (List.map (function Pk s -> print_pk_step s | Index -> "Index") steps)))
       QCheck.Gen.(
         let* steps =
           list_size (int_range 1 30)
             (frequency [ (9, map (fun s -> Pk s) gen_pk_step); (1, return Index) ])
         in
         let* first_read = int_range 0 (List.length steps) in
         return (steps, first_read)))
    (fun (steps, first_read) ->
      List.iter
        (fun keying ->
          let t = ref (Table.create (keying.schema ())) in
          ignore
            (List.fold_left
               (fun (model, i) step ->
                 let reading = i >= first_read in
                 let model =
                   match step with
                   | Index ->
                     if Table.index_cols !t ~name:"by_v" = None then
                       Table.create_index !t ~name:"by_v" ~cols:[ "v" ];
                     model
                   | Pk Copy ->
                     let source = !t in
                     t := Table.copy source;
                     if reading then check_ordered_reads keying source;
                     model
                   | Pk step -> apply_pk_step ~keying !t model step
                 in
                 if reading then check_ordered_reads keying !t;
                 (model, i + 1))
               ([], 0) steps))
        [ one_col; two_col ];
      true)

(* --- Checkpoint --- *)

let churned_db () =
  let db = Db.create () in
  let t =
    Db.create_table db ~name:"kv"
      ~columns:[ { Schema.name = "k"; ty = TInt }; { name = "v"; ty = TStr } ]
      ~key:[ "k" ]
  in
  for i = 0 to 30 do
    Table.load t [| v_int i; v_str (string_of_int (i * 7)) |]
  done;
  (* stamp some headers and tombstone a few rows *)
  for i = 0 to 30 do
    let e = Option.get (Table.find t (Value.encode_key [| v_int i |])) in
    Row_header.stamp e.Table.header ~sen:i ~csn:(Csn.make ~ts:(100 + i) ~node:(i mod 3)) ~cen:(i / 3);
    if i mod 5 = 0 then Table.delete t e
  done;
  db

let test_checkpoint_roundtrip () =
  let db = churned_db () in
  let restored = Checkpoint.decode (Checkpoint.encode db) in
  Alcotest.(check string) "digest preserved" (Db.digest db) (Db.digest restored);
  let t = Db.get_table_exn restored "kv" in
  Alcotest.(check int) "live rows" 24 (Table.live_count t);
  Alcotest.(check int) "tombstones kept" 31 (Table.total_count t)

let test_checkpoint_deterministic () =
  let a = Checkpoint.encode (churned_db ()) in
  let b = Checkpoint.encode (churned_db ()) in
  Alcotest.(check bytes) "equal states serialize identically" a b

let test_checkpoint_preserves_indexes () =
  let db = Db.create () in
  let t =
    Db.create_table db ~name:"p"
      ~columns:[ { Schema.name = "id"; ty = TInt }; { name = "grp"; ty = TInt } ]
      ~key:[ "id" ]
  in
  for i = 0 to 9 do
    Table.load t [| v_int i; v_int (i mod 3) |]
  done;
  Table.create_index t ~name:"by_grp" ~cols:[ "grp" ];
  let restored = Checkpoint.decode (Checkpoint.encode db) in
  let t' = Db.get_table_exn restored "p" in
  Alcotest.(check (list string)) "index survives" [ "by_grp" ] (Table.index_names t');
  Alcotest.(check int) "lookup works" 4
    (List.length (Table.index_lookup t' ~name:"by_grp" ~key:[| v_int 0 |]))

let test_checkpoint_rejects_garbage () =
  Alcotest.(check bool) "bad magic" true
    (try
       ignore (Checkpoint.decode (Bytes.of_string "\x07NOTCKPT123456"));
       false
     with Invalid_argument _ -> true)

(* --- Wal --- *)

let test_wal_latency_model () =
  let wal = Wal.create ~fsync_us:1000 ~throughput_mbps:100 () in
  let lat = Wal.append wal ~bytes:100_000 in
  Alcotest.(check int) "fsync + transfer" 2000 lat;
  Alcotest.(check int) "records" 1 (Wal.records wal);
  Alcotest.(check int) "bytes" 100_000 (Wal.bytes wal)

let () =
  Alcotest.run "gg_storage"
    [
      ( "value",
        [
          Alcotest.test_case "compare" `Quick test_value_compare;
          Alcotest.test_case "codec roundtrip" `Quick test_value_roundtrip;
          Alcotest.test_case "row roundtrip" `Quick test_value_row_roundtrip;
          Alcotest.test_case "key encoding" `Quick test_value_key_unique;
          Alcotest.test_case "key encoding edge cases" `Quick test_value_key_edge_cases;
          QCheck_alcotest.to_alcotest prop_encode_key_matches_codec;
          QCheck_alcotest.to_alcotest prop_value_roundtrip;
        ] );
      ("csn", [ Alcotest.test_case "ordering" `Quick test_csn_order ]);
      ( "schema",
        [
          Alcotest.test_case "create" `Quick test_schema_create;
          Alcotest.test_case "invalid" `Quick test_schema_invalid;
          Alcotest.test_case "validate_row" `Quick test_schema_validate_row;
        ] );
      ( "table",
        [
          Alcotest.test_case "load/find" `Quick test_table_load_find;
          Alcotest.test_case "duplicate load" `Quick test_table_duplicate_load;
          Alcotest.test_case "delete tombstone" `Quick test_table_delete_tombstone;
          Alcotest.test_case "revive" `Quick test_table_revive;
          Alcotest.test_case "insert_committed" `Quick test_table_insert_committed;
          Alcotest.test_case "temp table" `Quick test_table_temp;
          Alcotest.test_case "scan order" `Quick test_table_scan_order;
          Alcotest.test_case "scan walks the index as it began" `Quick
            test_table_scan_snapshot;
          Alcotest.test_case "scan range" `Quick test_table_scan_range;
          Alcotest.test_case "scan range on the leading key column" `Quick
            test_table_scan_range_leading_column;
          Alcotest.test_case "scan prefix" `Quick test_table_scan_prefix;
          QCheck_alcotest.to_alcotest prop_scans_match_filtered_scan;
          Alcotest.test_case "digest sensitivity" `Quick test_table_digest_sensitivity;
          Alcotest.test_case "digest ignores insertion order and growth" `Quick
            test_table_digest_order_free;
          Alcotest.test_case "digest covers the last partial chunk" `Quick
            test_table_digest_last_chunk;
          Alcotest.test_case "digest allocates a few words per row" `Quick
            test_table_digest_bounded_alloc;
          Alcotest.test_case "copy allocates no row arrays" `Quick
            test_table_copy_bounded_alloc;
          Alcotest.test_case "copy keeps its sort as the ordered index" `Quick
            test_table_copy_keeps_its_sort;
          Alcotest.test_case "purge tombstones" `Quick test_purge_tombstones;
          Alcotest.test_case "purge without tombstones" `Quick
            test_purge_without_tombstones;
          QCheck_alcotest.to_alcotest prop_pk_index_matches_model;
          QCheck_alcotest.to_alcotest prop_lazy_ordered_index;
        ] );
      ( "db",
        [
          Alcotest.test_case "catalog" `Quick test_db_catalog;
          Alcotest.test_case "replica digest" `Quick test_db_digest_replicas;
        ] );
      ( "secondary index",
        [
          Alcotest.test_case "lookup" `Quick test_index_lookup;
          Alcotest.test_case "composite" `Quick test_index_composite;
          Alcotest.test_case "tracks writes" `Quick test_index_tracks_writes;
          Alcotest.test_case "copy preserved" `Quick test_index_copy_preserved;
          Alcotest.test_case "invalid" `Quick test_index_invalid;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "deterministic" `Quick test_checkpoint_deterministic;
          Alcotest.test_case "preserves indexes" `Quick test_checkpoint_preserves_indexes;
          Alcotest.test_case "rejects garbage" `Quick test_checkpoint_rejects_garbage;
        ] );
      ("wal", [ Alcotest.test_case "latency model" `Quick test_wal_latency_model ]);
    ]
