module Value = Gg_storage.Value
module Schema = Gg_storage.Schema
module Rng = Gg_util.Rng

(* SQL-shaped workloads. This library cannot see {!Geogauss.Txn}, so a
   generator yields the transaction as (sql, params) statement lists;
   the harness/checker wraps them into [Txn.Sql_txn] requests. *)

type stmt = string * Value.t array

(* --- long scans over an append-style events table --------------------- *)

module Scan = struct
  type profile = {
    name : string;
    records : int;
    regions : int;
    span : int;  (* rows per range scan *)
    scan_pct : float;  (* scans+aggregates vs point updates *)
  }

  let table_name = "events"

  let base =
    {
      name = "SCAN";
      records = 8_000;
      regions = 8;
      span = 200;
      scan_pct = 0.8;
    }

  let with_records p records = { p with records }

  let schema =
    Schema.create ~name:table_name
      ~columns:
        [
          { Schema.name = "ev_id"; ty = Schema.TInt };
          { Schema.name = "region"; ty = Schema.TInt };
          { Schema.name = "ts"; ty = Schema.TInt };
          { Schema.name = "amount"; ty = Schema.TInt };
        ]
      ~key:[ "ev_id" ]

  let load p db =
    let table = Gg_storage.Db.add_table db schema in
    for i = 0 to p.records - 1 do
      Gg_storage.Table.load table
        [|
          Value.Int i;
          Value.Int (i mod p.regions);
          Value.Int i;
          Value.Int ((i * 37) mod 1000);
        |]
    done

  type t = { profile : profile; rng : Rng.t }

  let create profile ~seed = { profile; rng = Rng.create seed }
  let profile t = t.profile

  let next_stmts t : string * stmt list =
    let p = t.profile in
    if Rng.chance t.rng p.scan_pct then
      if Rng.chance t.rng 0.5 then begin
        let lo = Rng.int t.rng (max 1 (p.records - p.span)) in
        ( p.name ^ "-range",
          [
            ( "SELECT ev_id, amount FROM events WHERE ev_id BETWEEN ? AND ?",
              [| Value.Int lo; Value.Int (lo + p.span - 1) |] );
          ] )
      end
      else
        ( p.name ^ "-agg",
          [
            ( "SELECT COUNT(*), SUM(amount) FROM events WHERE region = ?",
              [| Value.Int (Rng.int t.rng p.regions) |] );
          ] )
    else
      let k = Rng.int t.rng p.records in
      ( p.name ^ "-upd",
        [
          ( "UPDATE events SET amount = ? WHERE ev_id = ?",
            [| Value.Int (Rng.int t.rng 1000); Value.Int k |] );
        ] )
end

(* --- secondary-index point queries over a profiles table -------------- *)

module Secidx = struct
  type profile = {
    name : string;
    records : int;
    regions : int;  (* indexed column cardinality *)
    read_pct : float;
    flip_pct : float;  (* updates that move a row between index keys *)
  }

  let table_name = "profiles"
  let index_name = "profiles_by_region"

  let base =
    {
      name = "SECIDX";
      records = 10_000;
      regions = 64;
      read_pct = 0.7;
      flip_pct = 0.3;
    }

  let with_records p records = { p with records }

  let schema =
    Schema.create ~name:table_name
      ~columns:
        [
          { Schema.name = "p_id"; ty = Schema.TInt };
          { Schema.name = "region"; ty = Schema.TInt };
          { Schema.name = "status"; ty = Schema.TInt };
          { Schema.name = "score"; ty = Schema.TInt };
        ]
      ~key:[ "p_id" ]

  let load p db =
    let table = Gg_storage.Db.add_table db schema in
    for i = 0 to p.records - 1 do
      Gg_storage.Table.load table
        [|
          Value.Int i;
          Value.Int (i mod p.regions);
          Value.Int 0;
          Value.Int ((i * 13) mod 100);
        |]
    done;
    Gg_storage.Table.create_index table ~name:index_name ~cols:[ "region" ]

  type t = { profile : profile; rng : Rng.t }

  let create profile ~seed = { profile; rng = Rng.create seed }
  let profile t = t.profile

  let next_stmts t : string * stmt list =
    let p = t.profile in
    if Rng.chance t.rng p.read_pct then
      ( p.name ^ "-read",
        [
          ( "SELECT p_id, score FROM profiles WHERE region = ?",
            [| Value.Int (Rng.int t.rng p.regions) |] );
        ] )
    else begin
      let k = Rng.int t.rng p.records in
      if Rng.chance t.rng p.flip_pct then
        (* move the row to another index key: exercises index
           maintenance on both the write and the merge path *)
        ( p.name ^ "-flip",
          [
            ( "UPDATE profiles SET region = ? WHERE p_id = ?",
              [| Value.Int (Rng.int t.rng p.regions); Value.Int k |] );
          ] )
      else
        ( p.name ^ "-upd",
          [
            ( "UPDATE profiles SET status = ?, score = ? WHERE p_id = ?",
              [|
                Value.Int (Rng.int t.rng 5);
                Value.Int (Rng.int t.rng 100);
                Value.Int k;
              |] );
          ] )
    end
end
