module Sim = Gg_sim.Sim
module Cpu = Gg_sim.Cpu
module Db = Gg_storage.Db
module Table = Gg_storage.Table
module Csn = Gg_storage.Csn
module Row_header = Gg_storage.Row_header
module Writeset = Gg_crdt.Writeset
module Meta = Gg_crdt.Meta
module Executor = Gg_sql.Executor
module Op = Gg_workload.Op

(* The commit-point read check of each isolation level. *)
type check =
  | Accept  (* RC *)
  | Same_csn  (* RR: the row still holds the version read *)
  | Snapshot  (* SI, SSI: the row was not rewritten after the snapshot *)

type t = {
  sim : Sim.t;
  cpu : Cpu.t;
  db : Db.t;
  cost : Params.cost;
  check : check;
  record_reads : bool;
      (* on at RR, SI and SSI, whose validation and read keys consume the
         read set; off (RC), nothing consumes a read's row, so an op
         transaction's point read probes none *)
  track_cols : bool;
  ssi : bool;
  plans : (string, (Executor.plan, string) result) Hashtbl.t;
      (* compiled statements by SQL text, errors included *)
  mutable catalog : int;  (* [Db.catalog] the cached plans were compiled at *)
}

let create (params : Params.t) ~sim ~cpu ~db =
  let check, ssi =
    match params.Params.isolation with
    | Params.RC -> (Accept, false)
    | Params.RR -> (Same_csn, false)
    | Params.SI -> (Snapshot, false)
    | Params.SSI -> (Snapshot, true)
  in
  {
    sim;
    cpu;
    db;
    cost = params.Params.cost;
    check;
    record_reads = check <> Accept;
    track_cols = Params.effective_merge_level params = Params.Column;
    ssi;
    plans = Hashtbl.create 16;
    catalog = Db.catalog db;
  }

let ssi t = t.ssi

type verdict = Commit_point | Read_invalid | Failed of string

(* The workloads send a handful of parameterised texts, so each is
   compiled once per node. A node that meets more distinct texts than
   this starts its table over. *)
let max_cached_stmts = 256

(* A plan binds tables and access paths, and an error may name a table
   that does not exist yet, so every cached result goes when the
   catalog moves (the SQL shell's CREATE TABLE and CREATE INDEX, or a
   recovering node's state transfer). *)
let plan t sql =
  let catalog = Db.catalog t.db in
  if catalog <> t.catalog then begin
    Hashtbl.reset t.plans;
    t.catalog <- catalog
  end;
  match Hashtbl.find_opt t.plans sql with
  | Some r -> r
  | None ->
    let r = Result.bind (Gg_sql.Parser.parse_result sql) (Executor.compile t.db) in
    if Hashtbl.length t.plans >= max_cached_stmts then Hashtbl.reset t.plans;
    Hashtbl.add t.plans sql r;
    r

let cached_statements t = Hashtbl.length t.plans

(* Algorithm 1, lines 9-18. *)
let valid t (txn : Txn.t) =
  let stale (r : Executor.read_record) =
    match Db.get_table t.db r.Executor.r_table with
    | None -> true
    | Some table -> (
      match Table.find table r.Executor.r_key_str with
      | None -> true (* row vanished *)
      | Some entry -> (
        let h = entry.Table.header in
        h.Row_header.deleted
        ||
        match t.check with
        | Same_csn -> not (Csn.equal h.Row_header.csn r.Executor.r_csn)
        | Snapshot | Accept -> h.Row_header.cen - 1 > txn.Txn.lsn))
  in
  t.check = Accept || not (List.exists stale txn.Txn.read_set)

(* The executed write set; its meta is stamped at the commit point. *)
let set_writes (txn : Txn.t) records =
  txn.Txn.writeset <-
    (if records = [] then None
     else
       Some
         (Writeset.make
            ~meta:(Meta.make ~sen:txn.Txn.sen ~cen:0 ~csn:Csn.zero)
            ~records ()))

let commit_point t txn k = k (if valid t txn then Commit_point else Read_invalid)

let run t (txn : Txn.t) k =
  match txn.Txn.request with
  | Txn.Op_txn o ->
    (* Stored-procedure style: parse, then one execution slice. Reads
       happen at the start of the slice; the commit point comes exec_us
       (+ injected delay) later, so the snapshot may move underneath —
       that is what RR/SI validation catches. *)
    let parse_us = o.Op.parse_cost_us in
    let exec_us = Op.n_ops o * t.cost.Params.exec_op_us in
    let extra_us = o.Op.exec_extra_us in
    txn.Txn.phases.parse_us <- parse_us;
    txn.Txn.phases.exec_us <- exec_us + extra_us;
    Cpu.run t.cpu ~cost:parse_us (fun () ->
        match
          Op_exec.exec ~record_reads:t.record_reads ~col_mask:t.track_cols
            t.db o
        with
        | Error m -> Cpu.run t.cpu ~cost:exec_us (fun () -> k (Failed m))
        | Ok { Op_exec.reads; writes } ->
          txn.Txn.read_set <- reads;
          set_writes txn writes;
          Cpu.run t.cpu ~cost:exec_us (fun () ->
              if extra_us > 0 then
                Sim.schedule t.sim ~after:extra_us (fun () ->
                    commit_point t txn k)
              else commit_point t txn k))
  | Txn.Sql_txn { stmts; _ } ->
    (* Interactive SQL executes statement by statement: each statement
       pays its own parse + execution slice, so later statements observe
       whatever snapshots were generated in the meantime (the source of
       RR/SI read-validation aborts). The parse slice is charged even
       when the text's plan comes from [t.plans]. *)
    let per_stmt_parse_us = 400 in
    txn.Txn.phases.parse_us <- List.length stmts * per_stmt_parse_us;
    txn.Txn.phases.exec_us <- List.length stmts * t.cost.Params.sql_stmt_us;
    let ctx =
      Executor.Ctx.create ~record_reads:t.record_reads
        ~track_cols:t.track_cols t.db
    in
    let rec step acc = function
      | [] ->
        txn.Txn.sql_results <- List.rev acc;
        txn.Txn.read_set <- Executor.Ctx.read_set ctx;
        set_writes txn (Executor.Ctx.writeset_records ctx);
        commit_point t txn k
      | (sql, params) :: rest ->
        Cpu.run t.cpu ~cost:(per_stmt_parse_us + t.cost.Params.sql_stmt_us)
          (fun () ->
            match
              Result.bind (plan t sql) (fun plan -> Executor.run ctx plan ~params)
            with
            | Error m -> k (Failed m)
            | Ok r -> step (r :: acc) rest)
    in
    step [] stmts

let stamp t (txn : Txn.t) ws ~cen ~csn =
  let meta = Meta.make ~sen:txn.Txn.sen ~cen ~csn in
  (* The SSI extension ships the read-set keys with the write set so
     peers can detect rw-antidependencies (§4.3). *)
  let read_keys =
    if t.ssi then
      List.map
        (fun (r : Executor.read_record) ->
          (r.Executor.r_table, r.Executor.r_key_str))
        txn.Txn.read_set
    else []
  in
  let ws = Writeset.with_commit ws ~meta ~read_keys in
  txn.Txn.writeset <- Some ws;
  txn.Txn.cen <- cen;
  txn.Txn.csn <- csn;
  ws
