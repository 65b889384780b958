module Topology = Gg_sim.Topology
module Ycsb = Gg_workload.Ycsb
module Tpcc = Gg_workload.Tpcc
module Params = Geogauss.Params
module Tablefmt = Gg_util.Tablefmt
module Stats = Gg_util.Stats
module Engine = Gg_engines.Engine
module Pool = Gg_par.Pool

let f = Tablefmt.fmt_f

(* --- shared settings --- *)

type setting = {
  ycsb_records : int;
  ycsb_connections : int;
  tpcc_cfg : Tpcc.config;
  tpcc_connections : int;
  warmup_ms : int;
  measure_ms : int;
}

let setting ~fast =
  if fast then
    {
      ycsb_records = 5_000;
      ycsb_connections = 32;
      tpcc_cfg = { Tpcc.default with Tpcc.warehouses = 8 };
      tpcc_connections = 16;
      warmup_ms = 400;
      measure_ms = 1_000;
    }
  else
    {
      ycsb_records = 100_000;
      ycsb_connections = 256;
      tpcc_cfg = Tpcc.default;
      tpcc_connections = 40;
      (* 120 total over 3 nodes, as in the paper *)
      warmup_ms = 1_000;
      measure_ms = 4_000;
    }

let ycsb_profile s base = Ycsb.with_records base s.ycsb_records

let engine_cfg = Engine.default_config

(* The file's one cluster run: GeoGauss on china3 unless [topology] is
   given, over the setting's window. *)
let geo s ?(params = Params.default) ?(topology = Topology.china3 ())
    ~connections ~load ~gen ~label () =
  Driver.run_geogauss ~params ~connections ~topology ~load ~gen
    ~warmup_ms:s.warmup_ms ~measure_ms:s.measure_ms ~label ()

let engine_run s (module E : Engine.S) ~gen ~connections ~label =
  Driver.run_engine
    (module E)
    ~config:engine_cfg ~topology:(Topology.china3 ()) ~gen ~connections
    ~warmup_ms:s.warmup_ms ~measure_ms:s.measure_ms ~label ()

(* Every suite lays its grid out as rows of thunks, one per grid point
   (a self-contained cluster simulation that prints nothing), in the
   order its tables print them. [run_rows] runs them all through the
   Domain pool in one wave and returns the results in the same rows.
   [split] cuts a list into the shape of [rows]: the one place results
   are paired with grid cells, which a suite with several tables also
   uses to cut [run_rows]'s rows back into tables. Results come back in
   submission order, so the output is byte-identical at every pool
   width. *)
let split rows xs =
  let next xs _ = match xs with x :: rest -> (rest, x) | [] -> assert false in
  snd (List.fold_left_map (List.fold_left_map next) xs rows)

let run_rows pool rows = split rows (Pool.run pool (List.concat rows))

(* One table row per label: the label, then [cells] of its [xs] entry. *)
let table ~title ~headers labels cells xs =
  let t = Tablefmt.create ~title ~headers in
  List.iter2 (fun label x -> Tablefmt.add_row t (label :: cells x)) labels xs;
  Tablefmt.render t

let tput_lat_p99 r =
  [ f ~dec:0 r.Result.tput; f r.Result.mean_ms; f r.Result.p99_ms ]

let tput_lat_abort r =
  [ f ~dec:0 r.Result.tput; f r.Result.mean_ms; f ~dec:3 r.Result.abort_rate ]

(* The paper's workloads as (name, load, gen, connections), their
   generators seeded with [seed]. *)
let ycsb_workload s ~seed name base =
  let p = ycsb_profile s base in
  (name, Ycsb.load p, Driver.ycsb_gens p ~seed, s.ycsb_connections)

let tpcc_workload s ~seed =
  ( "TPC-C", Tpcc.load s.tpcc_cfg, Driver.tpcc_gens s.tpcc_cfg ~seed,
    s.tpcc_connections )

(* Fig 5's workloads, Table 3's columns. *)
let paper_workloads s ~seed =
  [
    ycsb_workload s ~seed "YCSB-RO" Ycsb.read_only;
    ycsb_workload s ~seed "YCSB-MC" Ycsb.medium_contention;
    ycsb_workload s ~seed "YCSB-HC" Ycsb.high_contention;
    tpcc_workload s ~seed;
  ]

let mc_and_tpcc s ~seed =
  [
    ycsb_workload s ~seed "YCSB-MC" Ycsb.medium_contention;
    tpcc_workload s ~seed;
  ]

(* --- Fig 5: cross-system comparison --- *)

let fig5_tables pool s =
  let workloads = paper_workloads s ~seed:11 in
  let systems (wname, load, gen, connections) =
    let run params label () =
      fst (geo s ~params ~connections ~load ~gen ~label ())
    in
    let eng (module E : Engine.S) label () =
      engine_run s (module E) ~gen ~connections ~label
    in
    ( wname,
      [
        ("GeoGauss", run Params.default);
        ("GeoG-S", run (Params.with_variant Params.default Params.Sync_exec));
        ("GeoG-A", run (Params.with_variant Params.default Params.Async_merge));
        (* EOCC = the full cluster with the clock-assisted fast path on,
           at the default 5 ms skew bound (DESIGN.md §14). *)
        ("EOCC", run (Params.with_fastpath Params.default true));
        ("CRDB", eng (module Gg_engines.Crdb));
        ("Calvin", eng (module Gg_engines.Calvin));
        ("Aria", eng (module Gg_engines.Aria));
      ]
      @
      (* The last four baselines run YCSB only. *)
      if wname = "TPC-C" then []
      else
        [
          ("CalvinFS", eng (module Gg_engines.Calvinfs));
          ("Q-Store", eng (module Gg_engines.Qstore));
          ("SLOG", eng (module Gg_engines.Slog));
          ("Anna", eng (module Gg_engines.Anna));
        ] )
  in
  let grid = List.map systems workloads in
  List.map2
    (fun (wname, runs) rs ->
      (* Result.row leads with the label, which [table] prints. *)
      table
        ~title:(Printf.sprintf "Fig 5 — %s (3 regions, China)" wname)
        ~headers:Result.headers (List.map fst runs)
        (fun r -> List.tl (Result.row r))
        rs)
    grid
    (run_rows pool
       (List.map
          (fun (_, runs) -> List.map (fun (label, run) -> run label) runs)
          grid))

(* --- Table 2: phase breakdown (TPC-C) --- *)

let table2_tables pool s =
  let gen = Driver.tpcc_gens s.tpcc_cfg ~seed:21 in
  let load = Tpcc.load s.tpcc_cfg in
  let phases variant () =
    let _, extra =
      geo s
        ~params:(Params.with_variant Params.default variant)
        ~connections:s.tpcc_connections ~load ~gen
        ~label:(Params.variant_to_string variant)
        ()
    in
    extra.Driver.phase_means
  in
  (* One phase's mean across the three nodes, in ms. *)
  let mean get means =
    List.fold_left (fun a (_, m) -> a +. get m) 0. means
    /. float_of_int (List.length means)
    /. 1000.0
  in
  let variants =
    List.concat
      (run_rows pool
         [
           List.map phases
             [ Params.Sync_exec; Params.Async_merge; Params.Optimistic ];
         ])
  in
  [
    table
      ~title:"Table 2 — Runtime breakdown of a committed TPC-C transaction (ms)"
      ~headers:[ "phase"; "GeoG-S"; "GeoG-A"; "GeoGauss" ]
      [ "SQL Parse"; "Execute"; "Wait"; "Merge"; "Log" ]
      (fun get -> List.map (fun means -> f (mean get means)) variants)
      [
        (fun (p, _, _, _, _) -> p); (fun (_, e, _, _, _) -> e);
        (fun (_, _, w, _, _) -> w); (fun (_, _, _, m, _) -> m);
        (fun (_, _, _, _, l) -> l);
      ];
  ]

(* --- Fig 6: per-epoch behaviour --- *)

let fig6_tables pool s ~fast =
  let gen = Driver.tpcc_gens s.tpcc_cfg ~seed:31 in
  let load = Tpcc.load s.tpcc_cfg in
  let cells variant () =
    let _, extra =
      geo s
        ~params:(Params.with_variant Params.default variant)
        ~connections:s.tpcc_connections ~load ~gen
        ~label:(Params.variant_to_string variant)
        ()
    in
    extra.Driver.epoch_cells
  in
  let runs =
    List.concat
      (run_rows pool [ [ cells Params.Optimistic; cells Params.Sync_exec ] ])
  in
  let lookup e cells =
    match List.assoc_opt e cells with
    | Some (c : Geogauss.Metrics.epoch_cell) ->
      [
        string_of_int c.Geogauss.Metrics.committed;
        f (Stats.Acc.mean c.Geogauss.Metrics.latency /. 1000.0);
      ]
    | None -> [ "0"; f 0.0 ]
  in
  (* From GeoGauss's first epoch on. *)
  let first = match runs with ((e, _) :: _) :: _ -> e | _ -> 0 in
  let epochs = List.init (if fast then 15 else 30) (fun i -> first + i) in
  [
    table
      ~title:
        "Fig 6 — Committed txns and mean latency per epoch (TPC-C, node 0, \
         10 ms epochs)"
      ~headers:
        [ "epoch"; "GeoGauss commits"; "GeoGauss lat (ms)"; "GeoG-S commits";
          "GeoG-S lat (ms)" ]
      (List.map string_of_int epochs)
      (fun e -> List.concat_map (lookup e) runs)
      epochs;
  ]

(* --- Fig 7: long transactions --- *)

let fig7_tables pool s ~fast =
  let delays = if fast then [ 20 ] else [ 20; 100 ] in
  let fractions = [ 0.0; 0.02; 0.05; 0.1 ] in
  let connections = s.ycsb_connections in
  let geogauss ~load ~gen =
    fst (geo s ~connections ~load ~gen ~label:"GeoGauss" ())
  in
  let eng (module E : Engine.S) ~load:_ ~gen =
    engine_run s (module E) ~gen ~connections ~label:E.name
  in
  let systems =
    [
      ("GeoGauss", geogauss); ("Calvin", eng (module Gg_engines.Calvin));
      ("Aria", eng (module Gg_engines.Aria));
      ("CRDB", eng (module Gg_engines.Crdb));
    ]
  in
  let tput run delay_ms frac () =
    let p =
      Ycsb.with_long_txns
        (ycsb_profile s Ycsb.medium_contention)
        ~frac ~delay_us:(delay_ms * 1000)
    in
    (run ~load:(Ycsb.load p) ~gen:(Driver.ycsb_gens p ~seed:41)).Result.tput
  in
  (* A table per delay, a row per system, a cell per fraction; the
     slowdown ratios against the 0% baseline are computed after
     collection. *)
  let grid =
    List.map
      (fun d ->
        List.map (fun (_, run) -> List.map (tput run d) fractions) systems)
      delays
  in
  List.map2
    (fun delay_ms rows ->
      table
        ~title:
          (Printf.sprintf
             "Fig 7 — Throughput slowdown vs fraction of %d ms long txns \
              (YCSB-MC)"
             delay_ms)
        ~headers:
          ("system"
          :: List.map
               (fun fr -> Printf.sprintf "%.0f%%" (fr *. 100.))
               fractions)
        (List.map fst systems)
        (fun row ->
          let base = match row with b :: _ -> b | [] -> 1.0 in
          List.map
            (fun tput -> Printf.sprintf "%.2fx" (tput /. Float.max 1.0 base))
            row)
        rows)
    delays
    (split grid (run_rows pool (List.concat grid)))

(* --- Table 3: WAN traffic --- *)

let table3_tables pool s =
  let workloads = paper_workloads s ~seed:51 in
  let geogauss (_, load, gen, connections) () =
    (fst (geo s ~connections ~load ~gen ~label:"GeoGauss" ()))
      .Result.wan_kb_per_txn
  in
  let calvin (_, _, gen, connections) () =
    (engine_run s
       (module Gg_engines.Calvin)
       ~gen ~connections ~label:"Calvin")
      .Result.wan_kb_per_txn
  in
  [
    table
      ~title:"Table 3 — Average WAN traffic per transaction (KB/txn, gzip'd)"
      ~headers:("system" :: List.map (fun (name, _, _, _) -> name) workloads)
      [ "GeoGauss"; "Calvin" ] (List.map f)
      (run_rows pool
         [ List.map geogauss workloads; List.map calvin workloads ]);
  ]

(* --- Fig 8: epoch length --- *)

let fig8_tables pool s ~fast =
  let lengths = if fast then [ 1; 10; 50 ] else [ 1; 5; 10; 20; 50; 100; 200 ] in
  let workloads = mc_and_tpcc s ~seed:61 in
  (* Each epoch length runs twice: plain GeoGauss and the eocc fast
     path (default 5 ms skew bound) — the speculative seal's win should
     persist across epoch lengths. *)
  let grid =
    List.map
      (fun (_, load, gen, connections) ->
        List.map
          (fun ms ->
            List.map
              (fun params () ->
                fst
                  (geo s ~params:(Params.with_epoch_ms params ms) ~connections
                     ~load ~gen ~label:(string_of_int ms) ()))
              [ Params.default; Params.with_fastpath Params.default true ])
          lengths)
      workloads
  in
  List.map2
    (fun (wname, _, _, _) rows ->
      table
        ~title:(Printf.sprintf "Fig 8 — Effect of epoch length (%s)" wname)
        ~headers:
          [
            "epoch (ms)"; "tput (txn/s)"; "mean lat (ms)"; "p99 (ms)";
            "eocc tput"; "eocc mean lat"; "eocc p99";
          ]
        (List.map string_of_int lengths)
        (List.concat_map tput_lat_p99)
        rows)
    workloads
    (split grid (run_rows pool (List.concat grid)))

(* --- Fig 9: isolation levels --- *)

let fig9_tables pool s =
  let isolations = [ Params.RC; Params.RR; Params.SI ] in
  let workloads = mc_and_tpcc s ~seed:71 in
  let run (_, load, gen, connections) iso () =
    fst
      (geo s
         ~params:(Params.with_isolation Params.default iso)
         ~connections ~load ~gen
         ~label:(Params.isolation_to_string iso)
         ())
  in
  List.map2
    (fun (wname, _, _, _) rs ->
      table
        ~title:(Printf.sprintf "Fig 9 — Isolation levels (%s)" wname)
        ~headers:[ "isolation"; "tput (txn/s)"; "mean lat (ms)"; "abort rate" ]
        (List.map Params.isolation_to_string isolations)
        tput_lat_abort rs)
    workloads
    (run_rows pool (List.map (fun w -> List.map (run w) isolations) workloads))

(* --- Fig 10: contention --- *)

let fig10_tables pool s ~fast =
  let thetas = if fast then [ 0.0; 0.8; 0.99 ] else [ 0.0; 0.2; 0.4; 0.6; 0.8; 0.9; 0.99 ] in
  let mixes = [ ("80/20", Ycsb.medium_contention); ("50/50", Ycsb.high_contention) ] in
  let run base theta () =
    let p = Ycsb.with_theta (ycsb_profile s base) theta in
    fst
      (geo s ~connections:s.ycsb_connections ~load:(Ycsb.load p)
         ~gen:(Driver.ycsb_gens p ~seed:81) ~label:(f theta) ())
  in
  List.map2
    (fun (mix_name, _) rs ->
      table
        ~title:(Printf.sprintf "Fig 10 — Contention sweep (%s mix)" mix_name)
        ~headers:[ "theta"; "tput (txn/s)"; "mean lat (ms)"; "abort rate" ]
        (List.map f thetas) tput_lat_abort rs)
    mixes
    (run_rows pool
       (List.map (fun (_, base) -> List.map (run base) thetas) mixes))

(* --- Fig 11: scalability --- *)

let fig11_tables pool s ~fast =
  (* Smaller per-node population: up to 25 replicas live in one process. *)
  let p = Ycsb.with_records Ycsb.medium_contention (if fast then 2_000 else 20_000) in
  let connections = if fast then 16 else 128 in
  let run topology () =
    fst
      (geo s ~topology ~connections ~load:(Ycsb.load p)
         ~gen:(Driver.ycsb_gens p ~seed:91) ~label:topology.Topology.name ())
  in
  let china_sizes = if fast then [ 3; 9 ] else [ 3; 6; 9; 12; 15 ] in
  let world_sizes = if fast then [ 5; 15 ] else [ 3; 5; 10; 15; 20; 25 ] in
  let sets =
    [
      ( "Fig 11a — Scalability, China regions (YCSB-MC)",
        List.map Topology.china china_sizes );
      ( "Fig 11b — Scalability, worldwide DCs (YCSB-MC)",
        List.map Topology.worldwide world_sizes );
    ]
  in
  List.map2
    (fun (title, topos) rs ->
      table ~title
        ~headers:[ "replicas"; "tput (txn/s)"; "mean lat (ms)"; "p99 (ms)" ]
        (List.map (fun t -> string_of_int (Topology.n_nodes t)) topos)
        tput_lat_p99 rs)
    sets
    (run_rows pool (List.map (fun (_, topos) -> List.map run topos) sets))

(* --- Fig 12: fault-tolerance modes --- *)

let fig12_tables pool s =
  let p = ycsb_profile s Ycsb.medium_contention in
  let gen = Driver.ycsb_gens p ~seed:101 in
  let connections = s.ycsb_connections in
  let run ft label () =
    fst
      (geo s ~params:(Params.with_ft Params.default ft) ~connections
         ~load:(Ycsb.load p) ~gen ~label ())
  in
  let det make label () =
    Driver.run_engine_with ~make ~topology:(Topology.china3 ()) ~gen
      ~connections ~warmup_ms:s.warmup_ms ~measure_ms:s.measure_ms ~label ()
  in
  let systems =
    [
      ("GeoG-LB", run Params.Ft_local_backup);
      ("GeoG-RB", run Params.Ft_remote_backup);
      ("GeoG-Raft", run Params.Ft_raft);
      ( "Calvin-Raft",
        det (fun net ->
            let e = Gg_engines.Calvin.create_ft net engine_cfg in
            fun ~node txn cb -> Gg_engines.Calvin.submit e ~node txn cb) );
      ( "Aria-Raft",
        det (fun net ->
            let e = Gg_engines.Aria.create_ft net engine_cfg in
            fun ~node txn cb -> Gg_engines.Aria.submit e ~node txn cb) );
    ]
  in
  [
    table ~title:"Fig 12 — Fault-tolerance mechanisms (YCSB-MC)"
      ~headers:[ "system"; "tput (txn/s)"; "mean lat (ms)"; "p99 (ms)" ]
      (List.map fst systems) tput_lat_p99
      (List.concat
         (run_rows pool [ List.map (fun (label, run) -> run label) systems ]));
  ]

(* --- Fig 13: failure timeline --- *)

(* A single crash/recover timeline: one simulation, inherently
   sequential — there is no grid to fan out. *)
let fig13_tables _pool ~fast =
  let records = if fast then 2_000 else 20_000 in
  let connections = if fast then 16 else 64 in
  let p = Ycsb.with_records Ycsb.medium_contention records in
  let cluster =
    Geogauss.Cluster.create ~topology:(Topology.china3 ())
      ~load:(Ycsb.load p) ()
  in
  let clients =
    List.init 3 (fun i ->
        let g = Ycsb.create p ~seed:(111 + i) in
        let cl =
          Geogauss.Client.create cluster ~home:i ~connections ~gen:(fun () ->
              Geogauss.Txn.Op_txn (Ycsb.next_txn g))
        in
        Geogauss.Client.start cl;
        cl)
  in
  let crash_at = if fast then 3_000 else 10_000 in
  let recover_at = if fast then 8_000 else 20_000 in
  let horizon = if fast then 12_000 else 30_000 in
  Geogauss.Cluster.run_for_ms cluster crash_at;
  Geogauss.Cluster.crash cluster 2;
  Geogauss.Cluster.run_for_ms cluster (recover_at - crash_at);
  Geogauss.Cluster.recover cluster 2;
  Geogauss.Cluster.run_for_ms cluster (horizon - recover_at);
  let bucket_us = 1_000_000 in
  let tls = List.map (fun cl -> Geogauss.Client.timeline cl ~bucket_us) clients in
  let len = List.fold_left (fun a tl -> max a (List.length tl)) 0 tls in
  let buckets = List.init len Fun.id in
  let cell b tl =
    match List.nth_opt tl b with
    | Some (_, tput, lat) -> [ f ~dec:0 tput; f ~dec:0 lat ]
    | None -> [ "0"; "0" ]
  in
  [
    table
      ~title:
        (Printf.sprintf
           "Fig 13 — Per-client throughput/latency under failure (crash node \
            2 @ %ds, recover @ %ds)"
           (crash_at / 1000) (recover_at / 1000))
      ~headers:
        [
          "t (s)"; "client1 tput"; "client1 lat"; "client2 tput"; "client2 lat";
          "client3 tput"; "client3 lat";
        ]
      (List.map string_of_int buckets)
      (fun b -> List.concat_map (cell b) tls)
      buckets;
  ]

(* --- Ablations of the §5.1 design choices (not a paper figure) --- *)

let ablations_tables pool s =
  let p = ycsb_profile s Ycsb.medium_contention in
  let gen = Driver.ycsb_gens p ~seed:121 in
  let run label params () =
    fst
      (geo s ~params ~connections:s.ycsb_connections ~load:(Ycsb.load p) ~gen
         ~label ())
  in
  let ablations =
    [
      ("baseline (pipeline, 8 merge threads)", Params.default);
      ( "no pipelining (batch at epoch end)",
        { Params.default with Params.pipeline = false } );
      ( "single merge thread",
        {
          Params.default with
          Params.cost =
            { Params.default.Params.cost with Params.merge_threads = 1 };
        } );
      ( "no write-set compression proxy (4x records)",
        {
          Params.default with
          Params.cost =
            { Params.default.Params.cost with Params.merge_record_us = 24 };
        } );
    ]
  in
  (* The SSI extension the paper sketches in §4.3: read keys travel with
     the write sets, so WAN traffic grows — the cost the paper cites for
     not shipping it. *)
  let isolations =
    List.map
      (fun iso ->
        ( Params.isolation_to_string iso,
          Params.with_isolation Params.default iso ))
      [ Params.SI; Params.SSI ]
  in
  let thunks = List.map (fun (label, params) -> run label params) in
  List.map2
    (fun (title, headers, configs, cells) rs ->
      table ~title ~headers (List.map fst configs) cells rs)
    [
      ( "Ablations — pipelining and merge parallelism (YCSB-MC)",
        [ "configuration"; "tput (txn/s)"; "mean lat (ms)"; "p99 (ms)" ],
        ablations, tput_lat_p99 );
      ( "Extension — SSI vs the paper's isolation levels (YCSB-MC)",
        [
          "isolation"; "tput (txn/s)"; "mean lat (ms)"; "abort rate";
          "WAN KB/txn";
        ],
        isolations,
        fun r -> tput_lat_abort r @ [ f r.Result.wan_kb_per_txn ] );
    ]
    (run_rows pool [ thunks ablations; thunks isolations ])

(* The JSON artifact of a fig suite: one object per grid point, in the
   order its table prints them. *)
let write_points ~path ~suite ~fast points =
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\
    \  \"suite\": \"%s\",\n\
    \  \"fast\": %b,\n\
    \  \"points\": [\n\
     %s\n\
    \  ]\n\
     }\n"
    suite fast
    (String.concat ",\n" points);
  close_out oc

(* --- Fig "skew": merge granularity under skewed writes ---

   Not a paper figure: GeoGauss merges at whole-row granularity (first
   committer wins per row per epoch). This sweep runs the two write-
   skewed workloads — hotkey (rotating hot rows, single-counter
   increments) and social (power-law fanout feed bumps) — at both merge
   levels. Under column-level merge (DESIGN.md §13) concurrent updates
   to disjoint columns of one row all commit, so the abort rate must
   drop strictly below row-level's on both workloads; the WAN column
   reports whatever the masked encoding actually costs, either way. At
   the column level a counter cell is an LWW register, so the commits
   counted here include increments that a later write discards
   (ROADMAP.md item 9 measured 82.2% of them lost on the hot-only
   profile). Writes BENCH_skew.json. *)

let skew_levels = [ ("row", Params.Row); ("column", Params.Column) ]

let fig_skew_tables pool s ~fast =
  let warmup_ms, measure_ms = if fast then (300, 1_000) else (800, 3_000) in
  let s = { s with warmup_ms; measure_ms } in
  let hot =
    Gg_workload.Hotkey.with_records Gg_workload.Hotkey.base
      (if fast then 4_000 else 20_000)
  in
  let soc =
    Gg_workload.Social.with_users Gg_workload.Social.base
      (if fast then 10_000 else 50_000)
  in
  let workloads =
    [
      ("hotkey", Gg_workload.Hotkey.load hot, Driver.hotkey_gens hot ~seed:141);
      ("social", Gg_workload.Social.load soc, Driver.social_gens soc ~seed:151);
    ]
  in
  let run (wname, load, gen) (lname, level) () =
    ( wname, lname,
      fst
        (geo s
           ~params:{ Params.default with Params.merge_level = level }
           ~connections:64 ~load ~gen
           ~label:(Printf.sprintf "%s/%s" wname lname)
           ()) )
  in
  let rows =
    List.concat
      (run_rows pool
         (List.map (fun w -> List.map (run w) skew_levels) workloads))
  in
  let point_json (wname, lname, r) =
    Printf.sprintf
      "    {\"workload\": \"%s\", \"merge_level\": \"%s\", \"tput\": %.1f, \
       \"abort_rate\": %.5f, \"wan_kb_per_txn\": %.4f, \"committed\": %d, \
       \"aborted\": %d}"
      wname lname r.Result.tput r.Result.abort_rate r.Result.wan_kb_per_txn
      r.Result.committed r.Result.aborted
  in
  write_points ~path:"BENCH_skew.json" ~suite:"skew" ~fast
    (List.map point_json rows);
  (* The claim the sweep exists to check: per-column merge must abort
     strictly less than per-row merge on every skewed workload. *)
  let abort_of wname lname =
    List.find_map
      (fun (w, l, r) ->
        if w = wname && l = lname then Some r.Result.abort_rate else None)
      rows
  in
  List.iter
    (fun (wname, _, _) ->
      match (abort_of wname "row", abort_of wname "column") with
      | Some row, Some col when col >= row ->
        Printf.eprintf
          "  WARNING: %s aborts %.5f at column-level merge >= %.5f at \
           row-level — the finer lattice saved nothing\n\
           %!"
          wname col row
      | _ -> ())
    workloads;
  [
    table
      ~title:
        "Fig skew — Merge granularity under write skew (china3, 64 conns/node)"
      ~headers:
        [
          "workload"; "merge level"; "tput (txn/s)"; "abort rate"; "WAN KB/txn";
        ]
      (List.map (fun (wname, _, _) -> wname) rows)
      (fun (_, lname, r) ->
        [
          lname; f ~dec:0 r.Result.tput; f ~dec:4 r.Result.abort_rate;
          f ~dec:2 r.Result.wan_kb_per_txn;
        ])
      rows;
  ]

(* --- Fig fastpath: clock-assisted speculative sealing --- *)

(* The clock-assisted fast path (DESIGN.md §14) claims: at realistic
   clock-skew bounds (<= 10 ms) the eocc engine's p50 commit latency
   beats plain GeoGauss on the fig5 topology — the speculative merge +
   WAL prelog overlap the last EOF's flight — and it degrades honestly
   as the bound grows (the spec/confirm machinery never changes what
   clients observe, only when work is charged). The sweep runs YCSB-MC
   on china3: one skew-independent GeoGauss baseline and eocc at each
   skew bound. Misprediction counts are reported verbatim — a high mispredict rate
   with a latency win is an honest result (mispredicted epochs re-merge
   at the classic instant; only the speculated work is wasted). Writes
   BENCH_fastpath.json. *)

let fig_fastpath_tables pool s ~fast =
  let warmup_ms, measure_ms = if fast then (300, 1_000) else (800, 3_000) in
  let s = { s with warmup_ms; measure_ms } in
  let skews = if fast then [ 0; 10; 50 ] else [ 0; 5; 10; 20; 50 ] in
  let p =
    Ycsb.with_records Ycsb.medium_contention (if fast then 4_000 else 50_000)
  in
  let load = Ycsb.load p in
  let gen = Driver.ycsb_gens p ~seed:171 in
  let connections = if fast then 32 else 64 in
  let run engine skew label params () =
    let r, extra = geo s ~params ~connections ~load ~gen ~label () in
    let spec, confirms, mispredicts = extra.Driver.fastpath in
    (engine, skew, r, spec, confirms, mispredicts)
  in
  let rows =
    List.concat
      (run_rows pool
         [
           run "geogauss" (-1) "geogauss" Params.default
           :: List.map
                (fun skew ->
                  run "eocc" skew
                    (Printf.sprintf "eocc/skew%d" skew)
                    (Params.with_clock_skew_us
                       (Params.with_fastpath Params.default true)
                       (skew * 1_000)))
                skews;
         ])
  in
  let misp_rate spec mispredicts =
    if spec = 0 then 0.0 else float_of_int mispredicts /. float_of_int spec
  in
  let point_json (engine, skew, r, spec, confirms, mispredicts) =
    Printf.sprintf
      "    {\"engine\": \"%s\", \"clock_skew_ms\": %d, \"tput\": %.1f, \
       \"p50_ms\": %.3f, \"p95_ms\": %.3f, \"mean_ms\": %.3f, \"spec\": %d, \
       \"confirms\": %d, \"mispredicts\": %d, \"mispredict_rate\": %.5f}"
      engine skew r.Result.tput r.Result.p50_ms r.Result.p95_ms
      r.Result.mean_ms spec confirms mispredicts (misp_rate spec mispredicts)
  in
  write_points ~path:"BENCH_fastpath.json" ~suite:"fastpath" ~fast
    (List.map point_json rows);
  (* The claim the sweep exists to check: at skew bounds <= 10 ms, the
     fast path's p50 must beat the skew-independent baseline. *)
  let geo_p50 =
    List.find_map
      (fun (e, _, r, _, _, _) ->
        if e = "geogauss" then Some r.Result.p50_ms else None)
      rows
  in
  List.iter
    (fun (engine, skew, r, _, _, _) ->
      match geo_p50 with
      | Some base
        when engine = "eocc" && skew >= 0 && skew <= 10
             && r.Result.p50_ms >= base ->
        Printf.eprintf
          "  WARNING: eocc p50 %.2f ms at %d ms skew >= geogauss %.2f ms — \
           the speculative seal saved nothing\n\
           %!"
          r.Result.p50_ms skew base
      | _ -> ())
    rows;
  [
    table
      ~title:
        "Fig fastpath — Clock-assisted speculative sealing vs clock skew \
         (YCSB-MC, china3)"
      ~headers:
        [
          "engine"; "skew (ms)"; "tput (txn/s)"; "p50 (ms)"; "p95 (ms)";
          "mean (ms)"; "mispredict rate";
        ]
      (List.map (fun (engine, _, _, _, _, _) -> engine) rows)
      (fun (_, skew, r, spec, _, mispredicts) ->
        [
          (if skew < 0 then "-" else string_of_int skew);
          f ~dec:0 r.Result.tput;
          f r.Result.p50_ms;
          f r.Result.p95_ms;
          f r.Result.mean_ms;
          (if spec = 0 then "-" else f ~dec:3 (misp_rate spec mispredicts));
        ])
      rows;
  ]

(* --- registry --- *)

(* The one canonical name list, in paper order: the runners list it,
   and [tables] dispatches on the same names. *)
let names =
  [
    "fig5"; "table2"; "fig6"; "fig7"; "table3"; "fig8"; "fig9"; "fig10";
    "fig11"; "fig12"; "fig13"; "ablations"; "fig_skew";
    "fig_fastpath";
  ]

let tables ?(pool = Pool.seq) ~setting:s ~fast name =
  match name with
  | "fig5" -> Some (fig5_tables pool s)
  | "table2" -> Some (table2_tables pool s)
  | "fig6" -> Some (fig6_tables pool s ~fast)
  | "fig7" -> Some (fig7_tables pool s ~fast)
  | "table3" -> Some (table3_tables pool s)
  | "fig8" -> Some (fig8_tables pool s ~fast)
  | "fig9" -> Some (fig9_tables pool s)
  | "fig10" -> Some (fig10_tables pool s ~fast)
  | "fig11" -> Some (fig11_tables pool s ~fast)
  | "fig12" -> Some (fig12_tables pool s)
  | "fig13" -> Some (fig13_tables pool ~fast)
  | "ablations" -> Some (ablations_tables pool s)
  | "fig_skew" -> Some (fig_skew_tables pool s ~fast)
  | "fig_fastpath" -> Some (fig_fastpath_tables pool s ~fast)
  | _ -> None

let run ?(fast = false) ?pool name =
  match tables ?pool ~setting:(setting ~fast) ~fast name with
  | Some ts ->
    List.iter
      (fun t ->
        print_string t;
        print_newline ())
      ts;
    true
  | None -> false
