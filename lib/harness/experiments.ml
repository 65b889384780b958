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

(* GeoGauss variants run through the full cluster. *)
let geo_variant s ?(params = Params.default) ~variant ~label ~load ~gen
    ~connections () =
  let params = Params.with_variant params variant in
  let r, _ =
    Driver.run_geogauss ~params ~connections ~topology:(Topology.china3 ())
      ~load ~gen ~warmup_ms:s.warmup_ms ~measure_ms:s.measure_ms ~label ()
  in
  r

let engine_run s (module E : Engine.S) ~gen ~connections ~label =
  Driver.run_engine
    (module E)
    ~config:engine_cfg ~topology:(Topology.china3 ()) ~gen ~connections
    ~warmup_ms:s.warmup_ms ~measure_ms:s.measure_ms ~label ()

(* Every figure below is phrased the same way: build the full list of
   grid-point thunks (one thunk = one self-contained cluster simulation,
   nothing printed inside), fan them out through the Domain pool in one
   wave, then assemble tables from the results in submission order. The
   rendered output is byte-identical at every pool width; [Pool.seq]
   reproduces the old sequential loops exactly. *)

(* --- Fig 5: cross-system comparison --- *)

let fig5_workloads s =
  [
    ("YCSB-RO", `Ycsb (ycsb_profile s Ycsb.read_only));
    ("YCSB-MC", `Ycsb (ycsb_profile s Ycsb.medium_contention));
    ("YCSB-HC", `Ycsb (ycsb_profile s Ycsb.high_contention));
    ("TPC-C", `Tpcc s.tpcc_cfg);
  ]

let fig5_tables pool s =
  let groups =
    List.map
      (fun (wname, workload) ->
        let gen, load, connections =
          match workload with
          | `Ycsb p -> (Driver.ycsb_gens p ~seed:11, Ycsb.load p, s.ycsb_connections)
          | `Tpcc cfg -> (Driver.tpcc_gens cfg ~seed:11, Tpcc.load cfg, s.tpcc_connections)
        in
        let is_tpcc = match workload with `Tpcc _ -> true | `Ycsb _ -> false in
        let geo variant label () =
          geo_variant s ~variant ~label ~load ~gen ~connections ()
        in
        let eng (module E : Engine.S) label () =
          engine_run s (module E) ~gen ~connections ~label
        in
        (* EOCC = the full cluster with the clock-assisted fast path on,
           at the default 5 ms skew bound (DESIGN.md §14). *)
        let eocc label () =
          geo_variant s
            ~params:(Params.with_fastpath Params.default true)
            ~variant:Params.Optimistic ~label ~load ~gen ~connections ()
        in
        let runs =
          [
            geo Params.Optimistic "GeoGauss"; geo Params.Sync_exec "GeoG-S";
            geo Params.Async_merge "GeoG-A"; eocc "EOCC";
            eng (module Gg_engines.Crdb) "CRDB";
            eng (module Gg_engines.Calvin) "Calvin";
            eng (module Gg_engines.Aria) "Aria";
          ]
          @
          if is_tpcc then []
          else
            [
              eng (module Gg_engines.Calvinfs) "CalvinFS";
              eng (module Gg_engines.Qstore) "Q-Store";
              eng (module Gg_engines.Slog) "SLOG";
              eng (module Gg_engines.Anna) "Anna";
            ]
        in
        (wname, runs))
      (fig5_workloads s)
  in
  let results = Pool.run pool (List.concat_map snd groups) in
  let remaining = ref results in
  let take n =
    let taken = List.filteri (fun i _ -> i < n) !remaining in
    remaining := List.filteri (fun i _ -> i >= n) !remaining;
    taken
  in
  List.map
    (fun (wname, runs) ->
      let table =
        Tablefmt.create
          ~title:(Printf.sprintf "Fig 5 — %s (3 regions, China)" wname)
          ~headers:Result.headers
      in
      List.iter (fun r -> Tablefmt.add_row table (Result.row r))
        (take (List.length runs));
      Tablefmt.render table)
    groups

(* --- Table 2: phase breakdown (TPC-C) --- *)

let table2_tables pool s =
  let gen = Driver.tpcc_gens s.tpcc_cfg ~seed:21 in
  let load = Tpcc.load s.tpcc_cfg in
  let table =
    Tablefmt.create
      ~title:"Table 2 — Runtime breakdown of a committed TPC-C transaction (ms)"
      ~headers:[ "phase"; "GeoG-S"; "GeoG-A"; "GeoGauss" ]
  in
  let phases variant () =
    let params = Params.with_variant Params.default variant in
    let _, extra =
      Driver.run_geogauss ~params ~connections:s.tpcc_connections
        ~topology:(Topology.china3 ()) ~load ~gen ~warmup_ms:s.warmup_ms
        ~measure_ms:s.measure_ms
        ~label:(Params.variant_to_string variant)
        ()
    in
    (* average across the three nodes *)
    let n = List.length extra.Driver.phase_means in
    List.fold_left
      (fun (p, e, w, m, l) (_, (p', e', w', m', l')) ->
        (p +. p', e +. e', w +. w', m +. m', l +. l'))
      (0., 0., 0., 0., 0.) extra.Driver.phase_means
    |> fun (p, e, w, m, l) ->
    let d x = x /. float_of_int n /. 1000.0 in
    (d p, d e, d w, d m, d l)
  in
  match
    Pool.run pool
      [ phases Params.Sync_exec; phases Params.Async_merge;
        phases Params.Optimistic ]
  with
  | [ ps; pa; pg ] ->
    let row name get =
      Tablefmt.add_row table [ name; f (get ps); f (get pa); f (get pg) ]
    in
    row "SQL Parse" (fun (p, _, _, _, _) -> p);
    row "Execute" (fun (_, e, _, _, _) -> e);
    row "Wait" (fun (_, _, w, _, _) -> w);
    row "Merge" (fun (_, _, _, m, _) -> m);
    row "Log" (fun (_, _, _, _, l) -> l);
    [ Tablefmt.render table ]
  | _ -> assert false

(* --- Fig 6: per-epoch behaviour --- *)

let fig6_tables pool s ~fast =
  let gen = Driver.tpcc_gens s.tpcc_cfg ~seed:31 in
  let load = Tpcc.load s.tpcc_cfg in
  let cells variant () =
    let params = Params.with_variant Params.default variant in
    let _, extra =
      Driver.run_geogauss ~params ~connections:s.tpcc_connections
        ~topology:(Topology.china3 ()) ~load ~gen ~warmup_ms:s.warmup_ms
        ~measure_ms:s.measure_ms
        ~label:(Params.variant_to_string variant)
        ()
    in
    extra.Driver.epoch_cells
  in
  let gg, gs =
    match Pool.run pool [ cells Params.Optimistic; cells Params.Sync_exec ] with
    | [ gg; gs ] -> (gg, gs)
    | _ -> assert false
  in
  let table =
    Tablefmt.create
      ~title:
        "Fig 6 — Committed txns and mean latency per epoch (TPC-C, node 0, \
         10 ms epochs)"
      ~headers:
        [ "epoch"; "GeoGauss commits"; "GeoGauss lat (ms)"; "GeoG-S commits";
          "GeoG-S lat (ms)" ]
  in
  let lookup cells e =
    match List.assoc_opt e cells with
    | Some (c : Geogauss.Metrics.epoch_cell) ->
      (c.Geogauss.Metrics.committed, Stats.Acc.mean c.Geogauss.Metrics.latency /. 1000.0)
    | None -> (0, 0.0)
  in
  let first =
    match gg with (e, _) :: _ -> e | [] -> 0
  in
  let n_epochs = if fast then 15 else 30 in
  for e = first to first + n_epochs - 1 do
    let c1, l1 = lookup gg e and c2, l2 = lookup gs e in
    Tablefmt.add_row table
      [ string_of_int e; string_of_int c1; f l1; string_of_int c2; f l2 ]
  done;
  [ Tablefmt.render table ]

(* --- Fig 7: long transactions --- *)

let fig7_tables pool s ~fast =
  let delays = if fast then [ 20 ] else [ 20; 100 ] in
  let fractions = [ 0.0; 0.02; 0.05; 0.1 ] in
  let profile delay_ms frac =
    Ycsb.with_long_txns
      (ycsb_profile s Ycsb.medium_contention)
      ~frac ~delay_us:(delay_ms * 1000)
  in
  let systems delay_ms =
    let geo frac () =
      let p = profile delay_ms frac in
      (geo_variant s ~variant:Params.Optimistic ~label:"GeoGauss"
         ~load:(Ycsb.load p)
         ~gen:(Driver.ycsb_gens p ~seed:41)
         ~connections:s.ycsb_connections ())
        .Result.tput
    in
    let eng (module E : Engine.S) frac () =
      let p = profile delay_ms frac in
      (engine_run s
         (module E)
         ~gen:(Driver.ycsb_gens p ~seed:41)
         ~connections:s.ycsb_connections ~label:E.name)
        .Result.tput
    in
    [
      ("GeoGauss", geo); ("Calvin", eng (module Gg_engines.Calvin));
      ("Aria", eng (module Gg_engines.Aria));
      ("CRDB", eng (module Gg_engines.Crdb));
    ]
  in
  (* One thunk per (delay, system, fraction) grid point; the slowdown
     ratios against the 0% baseline are computed after collection. *)
  let thunks =
    List.concat_map
      (fun delay_ms ->
        List.concat_map
          (fun (_, run_for) -> List.map run_for fractions)
          (systems delay_ms))
      delays
  in
  let tputs = ref (Pool.run pool thunks) in
  let take () =
    match !tputs with
    | t :: rest ->
      tputs := rest;
      t
    | [] -> assert false
  in
  List.map
    (fun delay_ms ->
      let table =
        Tablefmt.create
          ~title:
            (Printf.sprintf
               "Fig 7 — Throughput slowdown vs fraction of %d ms long txns \
                (YCSB-MC)"
               delay_ms)
          ~headers:
            ("system"
            :: List.map (fun fr -> Printf.sprintf "%.0f%%" (fr *. 100.)) fractions)
      in
      List.iter
        (fun (name, _) ->
          let row = List.map (fun _ -> take ()) fractions in
          let base = match row with b :: _ -> b | [] -> 1.0 in
          Tablefmt.add_row table
            (name
            :: List.map
                 (fun tput ->
                   Printf.sprintf "%.2fx" (tput /. Float.max 1.0 base))
                 row))
        (systems delay_ms);
      Tablefmt.render table)
    delays

(* --- Table 3: WAN traffic --- *)

let table3_tables pool s =
  let table =
    Tablefmt.create
      ~title:"Table 3 — Average WAN traffic per transaction (KB/txn, gzip'd)"
      ~headers:[ "system"; "YCSB-RO"; "YCSB-MC"; "YCSB-HC"; "TPC-C" ]
  in
  let per_workload run =
    List.map
      (fun (_, workload) ->
        let gen, load, connections =
          match workload with
          | `Ycsb p ->
            (Driver.ycsb_gens p ~seed:51, Ycsb.load p, s.ycsb_connections)
          | `Tpcc cfg ->
            (Driver.tpcc_gens cfg ~seed:51, Tpcc.load cfg, s.tpcc_connections)
        in
        fun () -> f (run ~gen ~load ~connections))
      (fig5_workloads s)
  in
  let geo_cells =
    per_workload (fun ~gen ~load ~connections ->
        (geo_variant s ~variant:Params.Optimistic ~label:"GeoGauss" ~load ~gen
           ~connections ())
          .Result.wan_kb_per_txn)
  in
  let calvin_cells =
    per_workload (fun ~gen ~load:_ ~connections ->
        (engine_run s (module Gg_engines.Calvin) ~gen ~connections
           ~label:"Calvin")
          .Result.wan_kb_per_txn)
  in
  let cells = Pool.run pool (geo_cells @ calvin_cells) in
  let geo_row = List.filteri (fun i _ -> i < 4) cells in
  let calvin_row = List.filteri (fun i _ -> i >= 4) cells in
  Tablefmt.add_row table ("GeoGauss" :: geo_row);
  Tablefmt.add_row table ("Calvin" :: calvin_row);
  [ Tablefmt.render table ]

(* --- Fig 8: epoch length --- *)

let fig8_tables pool s ~fast =
  let lengths = if fast then [ 1; 10; 50 ] else [ 1; 5; 10; 20; 50; 100; 200 ] in
  let workloads =
    [
      (let p = ycsb_profile s Ycsb.medium_contention in
       ( "YCSB-MC", Ycsb.load p, Driver.ycsb_gens p ~seed:61,
         s.ycsb_connections ));
      ( "TPC-C", Tpcc.load s.tpcc_cfg, Driver.tpcc_gens s.tpcc_cfg ~seed:61,
        s.tpcc_connections );
    ]
  in
  (* Each epoch length runs twice: plain GeoGauss and the eocc fast
     path (default 5 ms skew bound) — the speculative seal's win should
     persist across epoch lengths. *)
  let thunks =
    List.concat_map
      (fun (_, load, gen, connections) ->
        List.concat_map
          (fun ms ->
            let run params () =
              let r, _ =
                Driver.run_geogauss ~params ~connections
                  ~topology:(Topology.china3 ()) ~load ~gen
                  ~warmup_ms:s.warmup_ms ~measure_ms:s.measure_ms
                  ~label:(string_of_int ms)
                  ()
              in
              r
            in
            [
              run (Params.with_epoch_ms Params.default ms);
              run
                (Params.with_epoch_ms
                   (Params.with_fastpath Params.default true)
                   ms);
            ])
          lengths)
      workloads
  in
  let results = ref (Pool.run pool thunks) in
  List.map
    (fun (wname, _, _, _) ->
      let table =
        Tablefmt.create
          ~title:(Printf.sprintf "Fig 8 — Effect of epoch length (%s)" wname)
          ~headers:
            [
              "epoch (ms)"; "tput (txn/s)"; "mean lat (ms)"; "p99 (ms)";
              "eocc tput"; "eocc mean lat"; "eocc p99";
            ]
      in
      List.iter
        (fun ms ->
          let r, e =
            match !results with
            | r :: e :: rest ->
              results := rest;
              (r, e)
            | _ -> assert false
          in
          Tablefmt.add_row table
            [
              string_of_int ms; f ~dec:0 r.Result.tput; f r.Result.mean_ms;
              f r.Result.p99_ms; f ~dec:0 e.Result.tput; f e.Result.mean_ms;
              f e.Result.p99_ms;
            ])
        lengths;
      Tablefmt.render table)
    workloads

(* --- Fig 9: isolation levels --- *)

let fig9_tables pool s =
  let isolations = [ Params.RC; Params.RR; Params.SI ] in
  let workloads =
    [
      (let p = ycsb_profile s Ycsb.medium_contention in
       ( "YCSB-MC", Ycsb.load p, Driver.ycsb_gens p ~seed:71,
         s.ycsb_connections ));
      ( "TPC-C", Tpcc.load s.tpcc_cfg, Driver.tpcc_gens s.tpcc_cfg ~seed:71,
        s.tpcc_connections );
    ]
  in
  let thunks =
    List.concat_map
      (fun (_, load, gen, connections) ->
        List.map
          (fun iso () ->
            let params = Params.with_isolation Params.default iso in
            let r, _ =
              Driver.run_geogauss ~params ~connections
                ~topology:(Topology.china3 ()) ~load ~gen ~warmup_ms:s.warmup_ms
                ~measure_ms:s.measure_ms
                ~label:(Params.isolation_to_string iso)
                ()
            in
            r)
          isolations)
      workloads
  in
  let results = ref (Pool.run pool thunks) in
  List.map
    (fun (wname, _, _, _) ->
      let table =
        Tablefmt.create
          ~title:(Printf.sprintf "Fig 9 — Isolation levels (%s)" wname)
          ~headers:
            [ "isolation"; "tput (txn/s)"; "mean lat (ms)"; "abort rate" ]
      in
      List.iter
        (fun iso ->
          let r = List.hd !results in
          results := List.tl !results;
          Tablefmt.add_row table
            [
              Params.isolation_to_string iso; f ~dec:0 r.Result.tput;
              f r.Result.mean_ms; f ~dec:3 r.Result.abort_rate;
            ])
        isolations;
      Tablefmt.render table)
    workloads

(* --- Fig 10: contention --- *)

let fig10_tables pool s ~fast =
  let thetas = if fast then [ 0.0; 0.8; 0.99 ] else [ 0.0; 0.2; 0.4; 0.6; 0.8; 0.9; 0.99 ] in
  let mixes = [ ("80/20", Ycsb.medium_contention); ("50/50", Ycsb.high_contention) ] in
  let thunks =
    List.concat_map
      (fun (_, base) ->
        List.map
          (fun theta () ->
            let p = Ycsb.with_theta (ycsb_profile s base) theta in
            geo_variant s ~variant:Params.Optimistic
              ~label:(f theta)
              ~load:(Ycsb.load p)
              ~gen:(Driver.ycsb_gens p ~seed:81)
              ~connections:s.ycsb_connections ())
          thetas)
      mixes
  in
  let results = ref (Pool.run pool thunks) in
  List.map
    (fun (mix_name, _) ->
      let table =
        Tablefmt.create
          ~title:(Printf.sprintf "Fig 10 — Contention sweep (%s mix)" mix_name)
          ~headers:[ "theta"; "tput (txn/s)"; "mean lat (ms)"; "abort rate" ]
      in
      List.iter
        (fun theta ->
          let r = List.hd !results in
          results := List.tl !results;
          Tablefmt.add_row table
            [
              f theta; f ~dec:0 r.Result.tput; f r.Result.mean_ms;
              f ~dec:3 r.Result.abort_rate;
            ])
        thetas;
      Tablefmt.render table)
    mixes

(* --- Fig 11: scalability --- *)

let fig11_tables pool s ~fast =
  (* Smaller per-node population: up to 25 replicas live in one process. *)
  let p = Ycsb.with_records Ycsb.medium_contention (if fast then 2_000 else 20_000) in
  let connections = if fast then 16 else 128 in
  let run topo () =
    let r, _ =
      Driver.run_geogauss ~connections ~topology:topo ~load:(Ycsb.load p)
        ~gen:(Driver.ycsb_gens p ~seed:91) ~warmup_ms:s.warmup_ms
        ~measure_ms:s.measure_ms ~label:topo.Topology.name ()
    in
    r
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
  let results =
    ref (Pool.run pool (List.concat_map (fun (_, topos) -> List.map run topos) sets))
  in
  List.map
    (fun (title, topos) ->
      let table =
        Tablefmt.create ~title
          ~headers:[ "replicas"; "tput (txn/s)"; "mean lat (ms)"; "p99 (ms)" ]
      in
      List.iter
        (fun topo ->
          let r = List.hd !results in
          results := List.tl !results;
          Tablefmt.add_row table
            [
              string_of_int (Topology.n_nodes topo); f ~dec:0 r.Result.tput;
              f r.Result.mean_ms; f r.Result.p99_ms;
            ])
        topos;
      Tablefmt.render table)
    sets

(* --- Fig 12: fault-tolerance modes --- *)

let fig12_tables pool s =
  let p = ycsb_profile s Ycsb.medium_contention in
  let gen = Driver.ycsb_gens p ~seed:101 in
  let geo label ft () =
    let params = Params.with_ft Params.default ft in
    let r, _ =
      Driver.run_geogauss ~params ~connections:s.ycsb_connections
        ~topology:(Topology.china3 ()) ~load:(Ycsb.load p) ~gen
        ~warmup_ms:s.warmup_ms ~measure_ms:s.measure_ms ~label ()
    in
    (label, r)
  in
  let det label make () =
    let r =
      Driver.run_engine_with ~make ~topology:(Topology.china3 ()) ~gen
        ~connections:s.ycsb_connections ~warmup_ms:s.warmup_ms
        ~measure_ms:s.measure_ms ~label ()
    in
    (label, r)
  in
  let rows =
    Pool.run pool
      [
        geo "GeoG-LB" Params.Ft_local_backup;
        geo "GeoG-RB" Params.Ft_remote_backup; geo "GeoG-Raft" Params.Ft_raft;
        det "Calvin-Raft" (fun net ->
            let e = Gg_engines.Calvin.create_ft net engine_cfg in
            fun ~node txn cb -> Gg_engines.Calvin.submit e ~node txn cb);
        det "Aria-Raft" (fun net ->
            let e = Gg_engines.Aria.create_ft net engine_cfg in
            fun ~node txn cb -> Gg_engines.Aria.submit e ~node txn cb);
      ]
  in
  let table =
    Tablefmt.create
      ~title:"Fig 12 — Fault-tolerance mechanisms (YCSB-MC)"
      ~headers:[ "system"; "tput (txn/s)"; "mean lat (ms)"; "p99 (ms)" ]
  in
  List.iter
    (fun (label, r) ->
      Tablefmt.add_row table
        [ label; f ~dec:0 r.Result.tput; f r.Result.mean_ms; f r.Result.p99_ms ])
    rows;
  [ Tablefmt.render table ]

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
  let table =
    Tablefmt.create
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
  in
  let bucket_us = 1_000_000 in
  let tls = List.map (fun cl -> Geogauss.Client.timeline cl ~bucket_us) clients in
  let len = List.fold_left (fun a tl -> max a (List.length tl)) 0 tls in
  for b = 0 to len - 1 do
    let cell tl =
      match List.nth_opt tl b with
      | Some (_, tput, lat) -> [ f ~dec:0 tput; f ~dec:0 lat ]
      | None -> [ "0"; "0" ]
    in
    Tablefmt.add_row table
      ((string_of_int b :: cell (List.nth tls 0))
      @ cell (List.nth tls 1)
      @ cell (List.nth tls 2))
  done;
  [ Tablefmt.render table ]

(* --- Ablations of the §5.1 design choices (not a paper figure) --- *)

let ablations_tables pool s =
  let p = ycsb_profile s Ycsb.medium_contention in
  let gen = Driver.ycsb_gens p ~seed:121 in
  let run label params () =
    let r, _ =
      Driver.run_geogauss ~params ~connections:s.ycsb_connections
        ~topology:(Topology.china3 ()) ~load:(Ycsb.load p) ~gen
        ~warmup_ms:s.warmup_ms ~measure_ms:s.measure_ms ~label ()
    in
    (label, r)
  in
  let iso_run iso () =
    let params = Params.with_isolation Params.default iso in
    let r, _ =
      Driver.run_geogauss ~params ~connections:s.ycsb_connections
        ~topology:(Topology.china3 ()) ~load:(Ycsb.load p) ~gen
        ~warmup_ms:s.warmup_ms ~measure_ms:s.measure_ms
        ~label:(Params.isolation_to_string iso)
        ()
    in
    (iso, r)
  in
  let ablation_thunks =
    [
      run "baseline (pipeline, 8 merge threads)" Params.default;
      run "no pipelining (batch at epoch end)"
        { Params.default with Params.pipeline = false };
      run "single merge thread"
        {
          Params.default with
          Params.cost =
            { Params.default.Params.cost with Params.merge_threads = 1 };
        };
      run "no write-set compression proxy (4x records)"
        {
          Params.default with
          Params.cost =
            { Params.default.Params.cost with Params.merge_record_us = 24 };
        };
    ]
  in
  (* The SSI extension the paper sketches in §4.3: read keys travel with
     the write sets, so WAN traffic grows — the cost the paper cites for
     not shipping it. *)
  let iso_thunks = List.map iso_run [ Params.SI; Params.SSI ] in
  let n_abl = List.length ablation_thunks in
  let all_rows =
    Pool.run pool
      (List.map (fun t () -> `Abl (t ())) ablation_thunks
      @ List.map (fun t () -> `Iso (t ())) iso_thunks)
  in
  let table =
    Tablefmt.create
      ~title:"Ablations — pipelining and merge parallelism (YCSB-MC)"
      ~headers:[ "configuration"; "tput (txn/s)"; "mean lat (ms)"; "p99 (ms)" ]
  in
  List.iteri
    (fun i row ->
      match row with
      | `Abl (label, r) when i < n_abl ->
        Tablefmt.add_row table
          [
            label; f ~dec:0 r.Result.tput; f r.Result.mean_ms; f r.Result.p99_ms;
          ]
      | _ -> ())
    all_rows;
  let table_ssi =
    Tablefmt.create
      ~title:"Extension — SSI vs the paper's isolation levels (YCSB-MC)"
      ~headers:
        [ "isolation"; "tput (txn/s)"; "mean lat (ms)"; "abort rate"; "WAN KB/txn" ]
  in
  List.iter
    (fun row ->
      match row with
      | `Iso (iso, r) ->
        Tablefmt.add_row table_ssi
          [
            Params.isolation_to_string iso; f ~dec:0 r.Result.tput;
            f r.Result.mean_ms; f ~dec:3 r.Result.abort_rate;
            f r.Result.wan_kb_per_txn;
          ]
      | `Abl _ -> ())
    all_rows;
  [ Tablefmt.render table; Tablefmt.render table_ssi ]

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

(* --- Fig "scale": partial replication at 25-200 replicas ---

   Not a paper figure: GeoGauss evaluates full replication only (Fig 11
   stops at 25 worldwide replicas). This sweep shows why partial
   replication matters at larger widths — under full replication every
   committed transaction is shipped to all n-1 peers, so WAN bytes/txn
   grows linearly with n, while interest-scoped dissemination
   (--partitioning region / hash:k) keeps it proportional to the average
   number of *interested* replicas. Same deterministic engine, same
   workload and epoch length in every mode; only the replica-group map
   changes. Writes BENCH_scale.json next to the other bench
   artifacts. *)

let scale_modes =
  [
    ("full", Params.P_none); ("region", Params.P_region);
    ("hash:4", Params.P_hash 4);
  ]

let fig_scale_tables pool ~fast =
  let widths = if fast then [ 25; 50 ] else [ 25; 50; 100; 200 ] in
  (* Low ops/txn, or the zipfian key draw touches nearly every group and
     there is no interest left to scope; 2 ops on 3 000 rows keeps most
     transactions inside one or two groups while still crossing groups
     often enough to exercise the vote path. *)
  let p =
    { (Ycsb.with_records Ycsb.medium_contention 3_000) with
      Ycsb.ops_per_txn = 2; name = "ycsb-mc-2op" }
  in
  let warmup_ms = if fast then 300 else 500 in
  let measure_ms = if fast then 800 else 1_500 in
  let run mode n () =
    (* 25 ms epochs: at worldwide latencies the cross-group vote pipeline
       depth stays small, and all three modes share the value so the
       comparison isolates dissemination. *)
    let params =
      { (Params.with_epoch_ms Params.default 25) with Params.partitioning = mode }
    in
    let r, _ =
      Driver.run_geogauss ~params ~connections:2
        ~topology:(Topology.worldwide n) ~load:(Ycsb.load p)
        ~gen:(Driver.ycsb_gens p ~seed:131) ~warmup_ms ~measure_ms
        ~label:(Params.partitioning_to_string mode)
        ()
    in
    r
  in
  let thunks =
    List.concat_map
      (fun (_, mode) -> List.map (run mode) widths)
      scale_modes
  in
  let results = Pool.run pool thunks in
  let rows =
    (* (mode_label, width, result) in submission order *)
    List.concat_map
      (fun (label, _) -> List.map (fun n -> (label, n)) widths)
      scale_modes
    |> List.map2 (fun r (label, n) -> (label, n, r)) results
  in
  let table =
    Tablefmt.create
      ~title:
        "Fig scale — Partial replication, worldwide DCs (YCSB-MC, 2 ops/txn, \
         25 ms epochs)"
      ~headers:
        [ "mode"; "replicas"; "tput (txn/s)"; "mean lat (ms)"; "WAN KB/txn" ]
  in
  List.iter
    (fun (label, n, r) ->
      Tablefmt.add_row table
        [
          label; string_of_int n; f ~dec:0 r.Result.tput; f r.Result.mean_ms;
          f ~dec:2 r.Result.wan_kb_per_txn;
        ])
    rows;
  let point_json (label, n, r) =
    Printf.sprintf
      "    {\"mode\": \"%s\", \"replicas\": %d, \"tput\": %.1f, \
       \"mean_lat_ms\": %.3f, \"wan_kb_per_txn\": %.4f, \"committed\": %d, \
       \"aborted\": %d}"
      label n r.Result.tput r.Result.mean_ms r.Result.wan_kb_per_txn
      r.Result.committed r.Result.aborted
  in
  write_points ~path:"BENCH_scale.json" ~suite:"scale" ~fast
    (List.map point_json rows);
  (* The claim the sweep exists to check: interest-scoped dissemination
     must beat full replication on the wire at every width. *)
  let wan label n =
    List.find_map
      (fun (l, w, r) ->
        if l = label && w = n then Some r.Result.wan_kb_per_txn else None)
      rows
  in
  List.iter
    (fun n ->
      match wan "full" n with
      | None -> ()
      | Some full ->
        List.iter
          (fun (label, _) ->
            if label <> "full" then
              match wan label n with
              | Some w when w >= full ->
                Printf.eprintf
                  "  WARNING: %s at %d replicas ships %.2f KB/txn >= full \
                   replication's %.2f — partial replication saved nothing\n\
                   %!"
                  label n w full
              | _ -> ())
          scale_modes)
    widths;
  [ Tablefmt.render table ]

(* --- Fig "skew": merge granularity under skewed writes ---

   Not a paper figure: GeoGauss merges at whole-row granularity (first
   committer wins per row per epoch). This sweep runs the two write-
   skewed workloads — hotkey (rotating hot rows, single-counter
   increments) and social (power-law fanout feed bumps) — at both merge
   levels. Under column-level merge (DESIGN.md §13) concurrent updates
   to disjoint columns of one row all commit, so the abort rate must
   drop strictly below row-level's on both workloads; the WAN column
   reports whatever the masked encoding actually costs, either way.
   Writes BENCH_skew.json. *)

let skew_levels = [ ("row", Params.Row); ("column", Params.Column) ]

let fig_skew_tables pool ~fast =
  let warmup_ms = if fast then 300 else 800 in
  let measure_ms = if fast then 1_000 else 3_000 in
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
    let params = { Params.default with Params.merge_level = level } in
    let r, _ =
      Driver.run_geogauss ~params ~connections:64
        ~topology:(Topology.china3 ()) ~load ~gen ~warmup_ms ~measure_ms
        ~label:(Printf.sprintf "%s/%s" wname lname)
        ()
    in
    r
  in
  let cells =
    List.concat_map
      (fun w -> List.map (fun l -> (w, l)) skew_levels)
      workloads
  in
  let results = Pool.run pool (List.map (fun (w, l) -> run w l) cells) in
  let rows =
    List.map2
      (fun ((wname, _, _), (lname, _)) r -> (wname, lname, r))
      cells results
  in
  let table =
    Tablefmt.create
      ~title:
        "Fig skew — Merge granularity under write skew (china3, 64 conns/node)"
      ~headers:
        [
          "workload"; "merge level"; "tput (txn/s)"; "abort rate"; "WAN KB/txn";
        ]
  in
  List.iter
    (fun (wname, lname, r) ->
      Tablefmt.add_row table
        [
          wname; lname; f ~dec:0 r.Result.tput; f ~dec:4 r.Result.abort_rate;
          f ~dec:2 r.Result.wan_kb_per_txn;
        ])
    rows;
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
  [ Tablefmt.render table ]

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

let fig_fastpath_tables pool ~fast =
  let warmup_ms = if fast then 300 else 800 in
  let measure_ms = if fast then 1_000 else 3_000 in
  let skews = if fast then [ 0; 10; 50 ] else [ 0; 5; 10; 20; 50 ] in
  let p =
    Ycsb.with_records Ycsb.medium_contention (if fast then 4_000 else 50_000)
  in
  let load = Ycsb.load p in
  let gen = Driver.ycsb_gens p ~seed:171 in
  let connections = if fast then 32 else 64 in
  let geo label params () =
    let r, extra =
      Driver.run_geogauss ~params ~connections ~topology:(Topology.china3 ())
        ~load ~gen ~warmup_ms ~measure_ms ~label ()
    in
    (r, extra.Driver.fastpath)
  in
  let cells =
    (("geogauss", -1), geo "geogauss" Params.default)
    :: List.map
         (fun skew ->
           let params =
             Params.with_clock_skew_us
               (Params.with_fastpath Params.default true)
               (skew * 1_000)
           in
           ( ("eocc", skew),
             geo (Printf.sprintf "eocc/skew%d" skew) params ))
         skews
  in
  let results = Pool.run pool (List.map snd cells) in
  let rows =
    List.map2
      (fun ((engine, skew), _) (r, (spec, confirms, mispredicts)) ->
        (engine, skew, r, spec, confirms, mispredicts))
      cells results
  in
  let misp_rate spec mispredicts =
    if spec = 0 then 0.0 else float_of_int mispredicts /. float_of_int spec
  in
  let table =
    Tablefmt.create
      ~title:
        "Fig fastpath — Clock-assisted speculative sealing vs clock skew \
         (YCSB-MC, china3)"
      ~headers:
        [
          "engine"; "skew (ms)"; "tput (txn/s)"; "p50 (ms)"; "p95 (ms)";
          "mean (ms)"; "mispredict rate";
        ]
  in
  List.iter
    (fun (engine, skew, r, spec, _, mispredicts) ->
      Tablefmt.add_row table
        [
          engine;
          (if skew < 0 then "-" else string_of_int skew);
          f ~dec:0 r.Result.tput;
          f r.Result.p50_ms;
          f r.Result.p95_ms;
          f r.Result.mean_ms;
          (if spec = 0 then "-" else f ~dec:3 (misp_rate spec mispredicts));
        ])
    rows;
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
  [ Tablefmt.render table ]

(* --- registry --- *)

(* The one canonical name list, in paper order: the runners list it,
   and [tables] dispatches on the same names. *)
let names =
  [
    "fig5"; "table2"; "fig6"; "fig7"; "table3"; "fig8"; "fig9"; "fig10";
    "fig11"; "fig12"; "fig13"; "ablations"; "fig_scale"; "fig_skew";
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
  | "fig_scale" -> Some (fig_scale_tables pool ~fast)
  | "fig_skew" -> Some (fig_skew_tables pool ~fast)
  | "fig_fastpath" -> Some (fig_fastpath_tables pool ~fast)
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
