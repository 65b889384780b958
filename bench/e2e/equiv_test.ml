(* The benchmark's driver loop must measure the same program as the
   paper-figure harness: on a smoke-sized ycsb-mc run, Drive.run and
   Driver.run_geogauss must produce equal results. *)

module Workload = Gg_e2e.Workload
module Result = Gg_harness.Result

let () =
  let make () = Workload.make ~smoke:true ~seed:42 "ycsb-mc" in
  let ours = (Gg_e2e.Drive.run (make ())).Gg_e2e.Drive.result in
  let w = make () in
  let theirs, _ =
    Gg_harness.Driver.run_geogauss ~params:w.params ~connections:w.connections
      ~req_gen:w.gen ~topology:w.topology ~load:w.load
      ~gen:(fun _ () -> assert false)
      ~warmup_ms:w.warmup_ms ~measure_ms:w.window_ms ~label:w.name ()
  in
  if ours <> theirs || ours.Result.committed = 0 then begin
    Printf.printf "Drive.run:           %s\nDriver.run_geogauss: %s\n"
      (String.concat " | " (Result.row ours))
      (String.concat " | " (Result.row theirs));
    exit 1
  end;
  Printf.printf "driver equivalence: %d commits, results equal\n"
    ours.Result.committed
