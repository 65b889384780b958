type isolation = RC | RR | SI | SSI

type variant = Optimistic | Sync_exec | Async_merge

type ft_mode = Ft_none | Ft_local_backup | Ft_remote_backup | Ft_raft

type merge_level = Row | Column

type cost = {
  exec_op_us : int;
  sql_stmt_us : int;
  merge_record_us : int;
  merge_threads : int;
  merge_base_us : int;
  notify_us : int;
  log_fsync_us : int;
}

type t = {
  epoch_us : int;
  isolation : isolation;
  variant : variant;
  ft : ft_mode;
  pipeline : bool;
  seed : int;
  cost : cost;
  client_retry_us : int;
  merge_par_threshold : int;
  merge_level : merge_level;
  fastpath : bool;
  clock_skew_us : int;
}

let default =
  {
    epoch_us = 10_000;
    isolation = RC;
    variant = Optimistic;
    ft = Ft_local_backup;
    pipeline = true;
    seed = 42;
    cost =
      {
        exec_op_us = 150;
        sql_stmt_us = 400;
        merge_record_us = 6;
        merge_threads = 8;
        merge_base_us = 200;
        notify_us = 1;
        log_fsync_us = 3_000;
      };
    client_retry_us = 2_000_000;
    merge_par_threshold = 4_096;
    merge_level = Row;
    fastpath = false;
    clock_skew_us = 5_000;
  }

let with_epoch_ms t ms = { t with epoch_us = ms * 1_000 }
let with_isolation t isolation = { t with isolation }
let with_variant t variant = { t with variant }
let with_ft t ft = { t with ft }

(* The fast path is a refinement of the Optimistic merge pipeline:
   speculative sealing has no meaning for GeoG-S (execution already
   waits on the previous snapshot) or GeoG-A (no epochs at all), so
   enabling it coerces the variant. *)
let with_fastpath t on =
  if on then { t with fastpath = true; variant = Optimistic }
  else { t with fastpath = false }

let with_clock_skew_us t clock_skew_us =
  { t with clock_skew_us = max 0 clock_skew_us }

let isolation_to_string = function
  | RC -> "RC"
  | RR -> "RR"
  | SI -> "SI"
  | SSI -> "SSI"

let variant_to_string = function
  | Optimistic -> "GeoGauss"
  | Sync_exec -> "GeoG-S"
  | Async_merge -> "GeoG-A"

let ft_to_string = function
  | Ft_none -> "none"
  | Ft_local_backup -> "local-backup"
  | Ft_remote_backup -> "remote-backup"
  | Ft_raft -> "raft"

let merge_level_to_string = function Row -> "row" | Column -> "column"

let merge_level_of_string = function
  | "row" -> Ok Row
  | "column" -> Ok Column
  | s -> Error (Printf.sprintf "unknown merge level %S (expected row or column)" s)

(* Column-level merge only exists inside the epoch-scoped kernel:
   GeoG-A's gossip applies whole rows on arrival (no per-epoch candidate
   set to resolve cells over), so it falls back to the row lattice
   rather than silently mis-merging. *)
let effective_merge_level t =
  match t.variant with Async_merge -> Row | Optimistic | Sync_exec -> t.merge_level
