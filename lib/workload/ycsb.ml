module Value = Gg_storage.Value
module Schema = Gg_storage.Schema

type profile = {
  name : string;
  records : int;
  fields : int;
  field_len : int;
  ops_per_txn : int;
  read_pct : float;
  theta : float;
  parse_cost_us : int;
  long_frac : float;
  long_delay_us : int;
}

let table_name = "usertable"

let base =
  {
    name = "ycsb";
    records = 100_000;
    fields = 10;
    field_len = 16;
    ops_per_txn = 10;
    read_pct = 0.8;
    theta = 0.8;
    parse_cost_us = 300;
    long_frac = 0.0;
    long_delay_us = 0;
  }

let read_only = { base with name = "YCSB-RO"; read_pct = 1.0; theta = 0.0 }
let medium_contention = { base with name = "YCSB-MC"; read_pct = 0.8; theta = 0.8 }
let high_contention = { base with name = "YCSB-HC"; read_pct = 0.5; theta = 0.9 }

let with_theta p theta = { p with theta }
let with_records p records = { p with records }

let with_long_txns p ~frac ~delay_us =
  { p with long_frac = frac; long_delay_us = delay_us }

let schema =
  Schema.create ~name:table_name
    ~columns:
      ({ Schema.name = "ycsb_key"; ty = Schema.TInt }
      :: List.init 10 (fun i ->
             { Schema.name = Printf.sprintf "field%d" i; ty = Schema.TStr }))
    ~key:[ "ycsb_key" ]

let key_of i = [| Value.Int i |]

let load profile db =
  let table = Gg_storage.Db.add_table db schema in
  for i = 0 to profile.records - 1 do
    (* Compact placeholder payload; see .mli. *)
    let row =
      Array.init 11 (fun c -> if c = 0 then Value.Int i else Value.Str "-")
    in
    Gg_storage.Table.load table row
  done

type t = { profile : profile; rng : Gg_util.Rng.t; zipf : Gg_util.Zipf.t }

let create profile ~seed =
  {
    profile;
    rng = Gg_util.Rng.create seed;
    zipf = Gg_util.Zipf.create ~theta:profile.theta ~n:profile.records;
  }

let profile t = t.profile

let field_payload t =
  (* Pseudo-random printable payload of [field_len] bytes. *)
  let b = Bytes.create t.profile.field_len in
  for i = 0 to Bytes.length b - 1 do
    Bytes.unsafe_set b i
      (Char.unsafe_chr (Char.code 'a' + Gg_util.Rng.int t.rng 26))
  done;
  Bytes.unsafe_to_string b

let next_txn t =
  let p = t.profile in
  let ops =
    List.init p.ops_per_txn (fun _ ->
        let k = Gg_util.Zipf.scrambled t.zipf t.rng in
        if Gg_util.Rng.chance t.rng p.read_pct then
          Op.Read { table = table_name; key = key_of k }
        else
          let data =
            Array.init (p.fields + 1) (fun c ->
                if c = 0 then Value.Int k else Value.Str (field_payload t))
          in
          Op.Write { table = table_name; key = key_of k; data })
  in
  let exec_extra_us =
    if p.long_frac > 0.0 && Gg_util.Rng.chance t.rng p.long_frac then
      p.long_delay_us
    else 0
  in
  Op.make ~label:p.name ~parse_cost_us:p.parse_cost_us ~exec_extra_us ops
