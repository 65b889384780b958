(* Benchmark harness.

   Usage:
     main.exe                 run every paper experiment + microbenchmarks
     main.exe fig5 table3 ... run specific experiments
     main.exe micro           run only the Bechamel kernel benchmarks
                              (writes BENCH_micro.json: OLS ns/run and
                              r-squared per kernel)
     main.exe --fast [...]    shrunk populations/windows (smoke mode)
     main.exe -j N [...]      fan independent simulations over N domains
                              (0 = auto; deterministic output at any N)
     main.exe --out FILE      JSON output path of the micro suite
                              (default BENCH_micro.json)

   Experiments regenerate the rows/series of every table and figure in
   the paper's evaluation (§7); see DESIGN.md for the index and
   EXPERIMENTS.md for recorded paper-vs-measured comparisons. *)

(* --- Bechamel microbenchmarks of the core kernels --- *)

let bench name f = Bechamel.Test.make ~name (Bechamel.Staged.stage f)

let bench_merge_rule =
  bench "delta-crdt merge (Algorithm 2)" (fun () ->
      let header = Gg_storage.Row_header.create () in
      for i = 1 to 100 do
        let meta =
          Gg_crdt.Meta.make ~sen:(i mod 7) ~cen:1
            ~csn:(Gg_storage.Csn.make ~ts:i ~node:(i mod 3))
        in
        ignore (Gg_crdt.Merge.merge_header header ~meta)
      done)

(* One YCSB-style write set: 10 updated rows of 11 columns. *)
let ycsb_ws =
  Gg_crdt.Writeset.make
    ~meta:(Gg_crdt.Meta.make ~sen:1 ~cen:2 ~csn:(Gg_storage.Csn.make ~ts:3 ~node:1))
    ~records:
      (List.init 10 (fun i ->
           Gg_crdt.Writeset.make_record ~table:"usertable"
             ~key:[| Gg_storage.Value.Int i |] ~op:Gg_crdt.Writeset.Update
             ~data:
               (Array.init 11 (fun c ->
                    if c = 0 then Gg_storage.Value.Int i
                    else Gg_storage.Value.Str "abcdefghijklmnop"))
             ()))
    ()

let bench_writeset_codec =
  bench "write-set batch encode+gzip+decode" (fun () ->
      (* a fresh batch per run: [to_wire] memoizes on the batch *)
      let batch =
        Gg_crdt.Writeset.Batch.make ~node:0 ~cen:2 ~txns:[ ycsb_ws ] ~eof:true ()
      in
      let wire = Gg_crdt.Writeset.Batch.to_wire batch in
      ignore (Gg_crdt.Writeset.Batch.of_wire wire))

(* The uncompressed frame [Writeset.Batch.to_wire] hands to the
   compressor: node, cen, eof, count, then each write set. *)
let frame_payload txns =
  let enc = Gg_util.Codec.Enc.create () in
  Gg_util.Codec.Enc.varint enc 0;
  Gg_util.Codec.Enc.varint enc 2;
  Gg_util.Codec.Enc.bool enc true;
  Gg_util.Codec.Enc.varint enc (List.length txns);
  Gg_util.Codec.Enc.varint enc (List.length txns);
  List.iter (Gg_crdt.Writeset.encode enc) txns;
  Gg_util.Codec.Enc.to_bytes enc

let bench_compress_eof =
  let payload = frame_payload [] in
  bench "compress (empty EOF frame)" (fun () ->
      ignore (Gg_util.Compress.compress payload))

let bench_compress_ycsb =
  let payload = frame_payload [ ycsb_ws ] in
  bench "compress (10-record YCSB write-set frame)" (fun () ->
      ignore (Gg_util.Compress.compress payload))

(* A ycsb-mc frame as the benchmark ships it: the first generated
   transaction with two writes (the mean at 20% writes of 10 ops), its
   records carrying the generator's random lowercase 16-byte fields. *)
let bench_compress_ycsb_random =
  let g = Gg_workload.Ycsb.create Gg_workload.Ycsb.medium_contention ~seed:5 in
  let rec writes () =
    let ws =
      Array.to_list (Gg_workload.Ycsb.next_txn g).Gg_workload.Op.ops
      |> List.filter_map (function
           | Gg_workload.Op.Write { table; key; data } ->
             Some
               (Gg_crdt.Writeset.make_record ~table ~key
                  ~op:Gg_crdt.Writeset.Update ~data ())
           | _ -> None)
    in
    if List.length ws = 2 then ws else writes ()
  in
  let payload =
    frame_payload
      [ Gg_crdt.Writeset.make ~meta:ycsb_ws.meta ~records:(writes ()) () ]
  in
  bench "compress (YCSB-MC frame, random fields)" (fun () ->
      ignore (Gg_util.Compress.compress payload))

let bench_ycsb_next_txn =
  let g = Gg_workload.Ycsb.create Gg_workload.Ycsb.medium_contention ~seed:5 in
  bench "Ycsb.next_txn (medium_contention)" (fun () ->
      ignore (Gg_workload.Ycsb.next_txn g))

let bench_zipf =
  let z = Gg_util.Zipf.create ~theta:0.8 ~n:1_000_000 in
  let rng = Gg_util.Rng.create 7 in
  bench "zipfian sampling (theta=0.8, 1M keys)" (fun () ->
      for _ = 1 to 100 do
        ignore (Gg_util.Zipf.scrambled z rng)
      done)

let bench_event_queue =
  bench "event queue push/pop (1k events)" (fun () ->
      let q = Gg_sim.Event_queue.create ~filler:() in
      let rng = Gg_util.Rng.create 3 in
      for _ = 1 to 1_000 do
        Gg_sim.Event_queue.push q ~time:(Gg_util.Rng.int rng 100_000) ()
      done;
      while not (Gg_sim.Event_queue.is_empty q) do
        ignore (Gg_sim.Event_queue.pop q)
      done)

let bench_sql_parse =
  bench "sql parse (point select)" (fun () ->
      ignore
        (Gg_sql.Parser.parse
           "SELECT c_name, c_balance FROM customer WHERE c_w_id = 3 AND \
            c_d_id = 5 AND c_id = 42"))

(* SQL execution on the sql-scan benchmark's table (Sqlgen.Scan at 2k
   rows), with the generator's two read statements: a primary-key range
   that matches 200 rows and an aggregate whose filter no access path
   can use. Parsed once; a fresh context per run, with no read set, as
   the benchmark's RC workloads run it. *)
let scan_db =
  lazy
    (let db = Gg_storage.Db.create () in
     Gg_workload.Sqlgen.Scan.(load (with_records base 2_000)) db;
     db)

let bench_sql_exec name sql params =
  let stmt = Gg_sql.Parser.parse sql in
  bench name (fun () ->
      let ctx = Gg_sql.Executor.Ctx.create (Lazy.force scan_db) in
      ignore (Gg_sql.Executor.exec ctx stmt ~params))

let bench_sql_range =
  bench_sql_exec "sql range select (200 of 2k rows)"
    "SELECT ev_id, amount FROM events WHERE ev_id BETWEEN ? AND ?"
    [| Gg_storage.Value.Int 900; Gg_storage.Value.Int 1099 |]

let bench_sql_aggregate =
  bench_sql_exec "sql aggregate full scan (2k rows)"
    "SELECT COUNT(*), SUM(amount) FROM events WHERE region = ?"
    [| Gg_storage.Value.Int 3 |]

(* The ordered-index walks under those two statements, on the same
   table, with a no-op callback. The index is built before the first
   run. *)
let scan_table =
  lazy
    (let t =
       Gg_storage.Db.get_table_exn (Lazy.force scan_db)
         Gg_workload.Sqlgen.Scan.table_name
     in
     Gg_storage.Table.scan t ~f:ignore;
     t)

let bench_table_scan =
  bench "Table.scan (2k rows)" (fun () ->
      Gg_storage.Table.scan (Lazy.force scan_table) ~f:ignore)

let bench_table_scan_range =
  let lo = [| Gg_storage.Value.Int 900 |] and hi = [| Gg_storage.Value.Int 1099 |] in
  bench "Table.scan_range (200 of 2k rows)" (fun () ->
      Gg_storage.Table.scan_range (Lazy.force scan_table) ~lo ~hi ignore)

let bench_op_exec =
  let db = Gg_storage.Db.create () in
  let p = Gg_workload.Ycsb.with_records Gg_workload.Ycsb.medium_contention 10_000 in
  Gg_workload.Ycsb.load p db;
  let g = Gg_workload.Ycsb.create p ~seed:5 in
  bench "op-level txn execution (YCSB, 10 ops)" (fun () ->
      ignore (Geogauss.Op_exec.exec db (Gg_workload.Ycsb.next_txn g)))

(* The key-level read path at the e2e benchmark's ycsb-ro scale: three
   50k-row YCSB replicas, as in one simulated cluster, loaded as each
   kernel's resource — once, just before that kernel runs, and dropped
   after it — with 4096 pre-drawn inputs cycled through, so a run times
   the calls alone. *)
let ycsb_ro_50k = Gg_workload.Ycsb.with_records Gg_workload.Ycsb.read_only 50_000

let ycsb_replicas () =
  Array.init 3 (fun _ ->
      let db = Gg_storage.Db.create () in
      Gg_workload.Ycsb.load ycsb_ro_50k db;
      db)

let cycle inputs =
  let i = ref 0 in
  fun () ->
    let x = inputs.(!i land (Array.length inputs - 1)) in
    incr i;
    x

let bench_with name ~allocate f =
  Bechamel.Test.make_with_resource ~name Bechamel.Test.uniq ~allocate
    ~free:ignore (Bechamel.Staged.stage f)

let bench_find_live =
  bench_with "Table.find_live random probe x100 (50k rows)"
    ~allocate:(fun () ->
      let rng = Gg_util.Rng.create 11 in
      let keys =
        Array.init 4096 (fun _ ->
            Gg_storage.Value.encode_key
              (Gg_workload.Ycsb.key_of (Gg_util.Rng.int rng 50_000)))
      in
      ( Gg_storage.Db.get_table_exn (ycsb_replicas ()).(0)
          Gg_workload.Ycsb.table_name,
        cycle keys ))
    (fun (table, next_key) ->
      for _ = 1 to 100 do
        ignore (Gg_storage.Table.find_live table (next_key ()))
      done)

(* One kernel per read path: with the read set on (RR, SI, SSI) every
   read probes its row; off (RC) a read resolves its table only. *)
let bench_op_exec_ro ~name ~record_reads =
  bench_with name
    ~allocate:(fun () ->
      let g = Gg_workload.Ycsb.create ycsb_ro_50k ~seed:5 in
      let txns = Array.init 4096 (fun _ -> Gg_workload.Ycsb.next_txn g) in
      (ycsb_replicas (), cycle txns, ref 0))
    (fun (dbs, next_txn, replica) ->
      for _ = 1 to 10 do
        replica := (!replica + 1) mod Array.length dbs;
        ignore
          (Geogauss.Op_exec.exec ~record_reads dbs.(!replica) (next_txn ()))
      done)

let bench_op_exec_ro_probe =
  bench_op_exec_ro ~record_reads:true
    ~name:"Op_exec.exec 10-read YCSB txn x10, RR/SI/SSI (3 x 50k-row replicas)"

let bench_op_exec_ro_rc =
  bench_op_exec_ro ~record_reads:false
    ~name:"Op_exec.exec 10-read YCSB txn x10, RC (3 x 50k-row replicas)"

(* One node's epoch merge on a TPC-C-shaped epoch: 40 write sets of 20
   records — a district update, 9 stock updates, an order insert and 9
   order-line inserts — so half of the 800 records are inserts into
   tables that grow with every run, as orders and order_line do under
   New-Order. The 40 district updates fall on 10 rows, so phase A's
   header races, the abort marks and validation all run. Each run is a
   fresh epoch ([cen]) with fresh insert keys; the update records are
   built once and shared, the insert records are built inside the run.
   The database is the kernel's resource. *)
let tpcc_merge_schema db ~name ~key cols =
  ignore
    (Gg_storage.Db.create_table db ~name
       ~columns:
         (List.map (fun c -> { Gg_storage.Schema.name = c; ty = Gg_storage.Schema.TInt }) cols)
       ~key)

let bench_epoch_merge =
  let int i = Gg_storage.Value.Int i in
  bench_with "Epoch_merge.run TPC-C-shaped epoch (800 records, 400 inserts)"
    ~allocate:(fun () ->
      let db = Gg_storage.Db.create () in
      tpcc_merge_schema db ~name:"district" ~key:[ "d_id" ] [ "d_id"; "d_ytd" ];
      tpcc_merge_schema db ~name:"stock" ~key:[ "s_id" ] [ "s_id"; "s_qty" ];
      tpcc_merge_schema db ~name:"orders" ~key:[ "o_id" ] [ "o_id"; "o_c_id" ];
      tpcc_merge_schema db ~name:"order_line" ~key:[ "ol_o_id"; "ol_number" ]
        [ "ol_o_id"; "ol_number"; "ol_amount" ];
      let load name n =
        let t = Gg_storage.Db.get_table_exn db name in
        for i = 0 to n - 1 do
          Gg_storage.Table.load t [| int i; int 0 |]
        done
      in
      load "district" 10;
      load "stock" 10_000;
      let rng = Gg_util.Rng.create 13 in
      let update table k =
        Gg_crdt.Writeset.make_record ~table ~key:[| int k |]
          ~op:Gg_crdt.Writeset.Update ~data:[| int k; int 1 |] ()
      in
      let updates =
        Array.init 40 (fun w ->
            update "district" (w mod 10)
            :: List.init 9 (fun _ -> update "stock" (Gg_util.Rng.int rng 10_000)))
      in
      (db, updates, ref 0))
    (fun (db, updates, epoch) ->
      incr epoch;
      let cen = !epoch in
      let txns =
        List.init 40 (fun w ->
            let o_id = (cen * 40) + w in
            let insert table key data =
              Gg_crdt.Writeset.make_record ~table ~key ~op:Gg_crdt.Writeset.Insert
                ~data ()
            in
            let inserts =
              insert "orders" [| int o_id |] [| int o_id; int w |]
              :: List.init 9 (fun ol ->
                     insert "order_line" [| int o_id; int ol |]
                       [| int o_id; int ol; int (w + ol) |])
            in
            Gg_crdt.Writeset.make
              ~meta:
                (Gg_crdt.Meta.make ~sen:(1 + (w mod 3)) ~cen
                   ~csn:(Gg_storage.Csn.make ~ts:((cen * 100) + w) ~node:(w mod 3)))
              ~records:(updates.(w) @ inserts) ())
      in
      ignore (Geogauss.Epoch_merge.run ~db ~jobs:1 ~ssi:false txns))

(* The convergence oracle digests every node's Db every epoch; the
   per-table digest cache (keyed on a mutation counter) turns the
   every-epoch case — most tables untouched since the last digest —
   into a hash over a handful of 32-byte table digests. *)
let digest_db =
  lazy
    (let db = Gg_storage.Db.create () in
     let p = Gg_workload.Ycsb.with_records Gg_workload.Ycsb.medium_contention 5_000 in
     Gg_workload.Ycsb.load p db;
     db)

let bench_db_digest_cold =
  bench "db digest, cold (5k rows, caches invalidated)" (fun () ->
      let db = Lazy.force digest_db in
      List.iter
        (fun n -> Gg_storage.Table.touch (Gg_storage.Db.get_table_exn db n))
        (Gg_storage.Db.table_names db);
      ignore (Gg_storage.Db.digest db))

let bench_db_digest_cached =
  bench "db digest, cached (5k rows, no mutations)" (fun () ->
      ignore (Gg_storage.Db.digest (Lazy.force digest_db)))

let run_micro ~out () =
  let open Bechamel in
  let benchmarks =
    [
      bench_merge_rule; bench_writeset_codec; bench_compress_eof;
      bench_compress_ycsb; bench_compress_ycsb_random; bench_ycsb_next_txn;
      bench_zipf; bench_event_queue;
      bench_sql_parse; bench_sql_range; bench_sql_aggregate;
      bench_table_scan; bench_table_scan_range; bench_op_exec;
      bench_find_live; bench_op_exec_ro_probe; bench_op_exec_ro_rc;
      bench_epoch_merge;
      bench_db_digest_cold;
      bench_db_digest_cached;
    ]
  in
  print_endline "Microbenchmarks (Bechamel; monotonic clock)";
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.3) ~kde:(Some 500) () in
  (* The kernels over 50k-row replicas skip Bechamel's per-sample heap
     compaction: on their heap it takes most of the quota, leaving too
     few samples for the fit. *)
  let big_heap =
    [ bench_find_live; bench_op_exec_ro_probe; bench_op_exec_ro_rc ]
  in
  let big_heap_cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 0.3) ~kde:(Some 500)
      ~stabilize:false ()
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let rows =
    List.concat_map
      (fun test ->
        let cfg = if List.memq test big_heap then big_heap_cfg else cfg in
        let results = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ]) in
        Hashtbl.fold
          (fun name raw acc ->
            let stats =
              Analyze.one
                (Analyze.ols ~bootstrap:0 ~r_square:true
                   ~predictors:[| Measure.run |])
                instance raw
            in
            match (Analyze.OLS.estimates stats, Analyze.OLS.r_square stats) with
            | Some [ est ], r2 ->
              let r2 = Option.value r2 ~default:Float.nan in
              Printf.printf "  %-45s %10.1f ns/run  (r2 %.4f)\n%!" name est r2;
              (name, est, r2) :: acc
            | _ ->
              Printf.printf "  %-45s (no estimate)\n%!" name;
              acc)
          results [])
      benchmarks
  in
  (* Bechamel names a grouped test "g/<name>"; the JSON keeps <name>. *)
  let kernel name =
    match String.index_opt name '/' with
    | Some i -> String.sub name (i + 1) (String.length name - i - 1)
    | None -> name
  in
  let oc = open_out out in
  Printf.fprintf oc
    "{\n  \"suite\": \"micro\",\n  \"unit\": \"ns/run\",\n  \"kernels\": [\n%s\n  ]\n}\n"
    (String.concat ",\n"
       (List.map
          (fun (name, est, r2) ->
            Printf.sprintf "    {\"kernel\": %S, \"ns_per_run\": %.1f, \"r_square\": %s}"
              (kernel name) est
              (if Float.is_finite r2 then Printf.sprintf "%.4f" r2 else "null"))
          rows));
  close_out oc;
  Printf.printf "  wrote %s\n" out

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let fast = List.mem "--fast" args in
  let args = List.filter (fun a -> a <> "--fast") args in
  let jobs = ref 1 in
  let out = ref None in
  let rec strip_opts = function
    | [] -> []
    | ("-j" | "--jobs") :: n :: rest ->
      jobs := int_of_string n;
      strip_opts rest
    | "--out" :: path :: rest ->
      out := Some path;
      strip_opts rest
    | a :: rest -> a :: strip_opts rest
  in
  let args = strip_opts args in
  let micro_out = Option.value !out ~default:"BENCH_micro.json" in
  Gg_par.Pool.with_pool ~jobs:!jobs @@ fun pool ->
  let run_experiment name =
    if not (Gg_harness.Experiments.run ~fast ~pool name) then begin
      Printf.eprintf "unknown experiment %s; available: %s micro\n" name
        (String.concat " " Gg_harness.Experiments.names);
      exit 1
    end
  in
  match args with
  | [] ->
    List.iter
      (fun name ->
        Printf.printf "=== %s ===\n%!" name;
        run_experiment name)
      Gg_harness.Experiments.names;
    run_micro ~out:micro_out ()
  | names ->
    List.iter
      (fun name ->
        match name with
        | "micro" -> run_micro ~out:micro_out ()
        | _ -> run_experiment name)
      names
