module Stats = Gg_util.Stats
module Obs = Gg_obs.Obs

type epoch_cell = { mutable committed : int; latency : Stats.Acc.t }

type t = {
  started : Obs.Counter.t;
  committed : Obs.Counter.t;
  aborted : Obs.Counter.t;
  ab_constraint : Obs.Counter.t;
  ab_read : Obs.Counter.t;
  ab_write : Obs.Counter.t;
  ab_ssi : Obs.Counter.t;
  ab_deleted : Obs.Counter.t;
  ab_failure : Obs.Counter.t;
  latency : Obs.Histogram.t;
  commit_latency : Obs.Histogram.t;
  mutable parse : Stats.Acc.t;
  mutable exec : Stats.Acc.t;
  mutable wait : Stats.Acc.t;
  mutable merge : Stats.Acc.t;
  mutable log : Stats.Acc.t;
  per_epoch : (int, epoch_cell) Hashtbl.t;
  merged_records : Obs.Counter.t;
  fp_spec : Obs.Counter.t;
  fp_confirm : Obs.Counter.t;
  fp_mispredict : Obs.Counter.t;
}

(* Clear the state that lives outside the instrument registry;
   [Obs.reset_all] zeroes the instruments and runs this hook. *)
let reset_tables t =
  t.parse <- Stats.Acc.create ();
  t.exec <- Stats.Acc.create ();
  t.wait <- Stats.Acc.create ();
  t.merge <- Stats.Acc.create ();
  t.log <- Stats.Acc.create ();
  Hashtbl.reset t.per_epoch

let create ~obs ~id =
  let name n = Printf.sprintf "node%d.%s" id n in
  let counter n = Obs.counter obs (name n) in
  let histogram n = Obs.histogram obs (name n) in
  let t =
    {
      started = counter "txn.started";
      committed = counter "txn.committed";
      aborted = counter "txn.aborted";
      ab_constraint = counter "txn.abort.constraint";
      ab_read = counter "txn.abort.read_validation";
      ab_write = counter "txn.abort.write_conflict";
      ab_ssi = counter "txn.abort.ssi";
      ab_deleted = counter "txn.abort.row_deleted";
      ab_failure = counter "txn.abort.node_failure";
      latency = histogram "txn.latency_us";
      commit_latency = histogram "txn.commit_latency_us";
      parse = Stats.Acc.create ();
      exec = Stats.Acc.create ();
      wait = Stats.Acc.create ();
      merge = Stats.Acc.create ();
      log = Stats.Acc.create ();
      per_epoch = Hashtbl.create 256;
      merged_records = counter "merge.records";
      fp_spec = counter "fastpath.spec";
      fp_confirm = counter "fastpath.confirm";
      fp_mispredict = counter "fastpath.mispredict";
    }
  in
  Obs.on_reset obs (fun () -> reset_tables t);
  t

let record_start t = Obs.Counter.incr t.started
let record_merged_records t n = Obs.Counter.add t.merged_records n
let merged_records t = Obs.Counter.value t.merged_records
let record_spec t = Obs.Counter.incr t.fp_spec
let record_spec_confirm t = Obs.Counter.incr t.fp_confirm
let record_spec_mispredict t = Obs.Counter.incr t.fp_mispredict
let spec_count t = Obs.Counter.value t.fp_spec
let spec_confirms t = Obs.Counter.value t.fp_confirm
let spec_mispredicts t = Obs.Counter.value t.fp_mispredict

let record_outcome t outcome =
  let lat = float_of_int (Txn.outcome_latency outcome) in
  Obs.Histogram.observe t.latency lat;
  match outcome with
  | Txn.Committed _ ->
    Obs.Counter.incr t.committed;
    Obs.Histogram.observe t.commit_latency lat
  | Txn.Aborted { reason; _ } -> (
    Obs.Counter.incr t.aborted;
    match reason with
    | Txn.Constraint_violation _ -> Obs.Counter.incr t.ab_constraint
    | Txn.Read_validation -> Obs.Counter.incr t.ab_read
    | Txn.Write_conflict -> Obs.Counter.incr t.ab_write
    | Txn.Ssi_conflict -> Obs.Counter.incr t.ab_ssi
    | Txn.Row_deleted -> Obs.Counter.incr t.ab_deleted
    | Txn.Node_failure -> Obs.Counter.incr t.ab_failure)

let record_phases t (p : Txn.phases) =
  Stats.Acc.add t.parse (float_of_int p.parse_us);
  Stats.Acc.add t.exec (float_of_int p.exec_us);
  Stats.Acc.add t.wait (float_of_int p.wait_us);
  Stats.Acc.add t.merge (float_of_int p.merge_us);
  Stats.Acc.add t.log (float_of_int p.log_us)

let record_epoch_commit t ~cen ~latency_us =
  let cell =
    match Hashtbl.find_opt t.per_epoch cen with
    | Some c -> c
    | None ->
      let c = { committed = 0; latency = Stats.Acc.create () } in
      Hashtbl.replace t.per_epoch cen c;
      c
  in
  cell.committed <- cell.committed + 1;
  Stats.Acc.add cell.latency (float_of_int latency_us)

let started t = Obs.Counter.value t.started
let committed t = Obs.Counter.value t.committed
let aborted t = Obs.Counter.value t.aborted

let aborted_by t = function
  | Txn.Constraint_violation _ -> Obs.Counter.value t.ab_constraint
  | Txn.Read_validation -> Obs.Counter.value t.ab_read
  | Txn.Write_conflict -> Obs.Counter.value t.ab_write
  | Txn.Ssi_conflict -> Obs.Counter.value t.ab_ssi
  | Txn.Row_deleted -> Obs.Counter.value t.ab_deleted
  | Txn.Node_failure -> Obs.Counter.value t.ab_failure

let latency t = Obs.Histogram.hist t.latency

let phase_means_us t =
  ( Stats.Acc.mean t.parse,
    Stats.Acc.mean t.exec,
    Stats.Acc.mean t.wait,
    Stats.Acc.mean t.merge,
    Stats.Acc.mean t.log )

let epoch_cells t =
  Hashtbl.fold (fun cen cell acc -> (cen, cell) :: acc) t.per_epoch []
  |> List.sort (fun (a, _) (b, _) -> Stdlib.compare a b)
