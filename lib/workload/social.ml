module Value = Gg_storage.Value
module Schema = Gg_storage.Schema
module Rng = Gg_util.Rng
module Zipf = Gg_util.Zipf

type profile = {
  name : string;
  users : int;
  theta : float;  (* author popularity skew *)
  fanout_alpha : float;  (* Pareto tail of follower counts *)
  max_fanout : int;
  read_pct : float;  (* timeline reads vs posts *)
  reads_per_txn : int;
  parse_cost_us : int;
}

let table_name = "account"

let base =
  {
    name = "SOCIAL";
    users = 50_000;
    theta = 0.9;
    fanout_alpha = 1.2;
    max_fanout = 64;
    read_pct = 0.7;
    reads_per_txn = 5;
    parse_cost_us = 300;
  }

let with_users p users = { p with users }

(* account: user_id | feed_count | post_count | last_seen *)
let schema =
  Schema.create ~name:table_name
    ~columns:
      [
        { Schema.name = "user_id"; ty = Schema.TInt };
        { Schema.name = "feed_count"; ty = Schema.TInt };
        { Schema.name = "post_count"; ty = Schema.TInt };
        { Schema.name = "last_seen"; ty = Schema.TInt };
      ]
    ~key:[ "user_id" ]

let feed_col = 1
let post_col = 2

let key_of i = [| Value.Int i |]

let load p db =
  let table = Gg_storage.Db.add_table db schema in
  for i = 0 to p.users - 1 do
    Gg_storage.Table.load table
      [| Value.Int i; Value.Int 0; Value.Int 0; Value.Int 0 |]
  done

type t = { profile : profile; rng : Rng.t; zipf : Zipf.t }

let create profile ~seed =
  {
    profile;
    rng = Rng.create seed;
    zipf = Zipf.create ~theta:profile.theta ~n:profile.users;
  }

let profile t = t.profile

(* The follow graph is implicit and deterministic: follower j of author
   a is a multiplicative hash of (a, j). Every replica derives the same
   graph from nothing, and popular authors (small zipf ranks drawn
   often) repeatedly fan out to the SAME follower rows — cross-region
   posts by hot authors collide on those rows, which is the contention
   this workload exists to produce. *)
let follower p ~author ~j =
  (((author * 2654435761) + (j * 40503) + 12289) land max_int) mod p.users

(* Pareto-tailed fanout: most posts reach a handful of followers, a few
   reach [max_fanout]. *)
let draw_fanout t =
  let p = t.profile in
  let u = 1.0 -. Rng.float t.rng 1.0 (* (0,1] *) in
  let k = int_of_float (u ** (-1.0 /. p.fanout_alpha)) in
  max 1 (min p.max_fanout k)

let next_txn t =
  let p = t.profile in
  if Rng.chance t.rng p.read_pct then begin
    (* timeline read: check own row + a few followed authors *)
    let self = Zipf.scrambled t.zipf t.rng in
    let ops =
      Op.Read { table = table_name; key = key_of self }
      :: List.init p.reads_per_txn (fun _ ->
             Op.Read
               {
                 table = table_name;
                 key = key_of (Zipf.scrambled t.zipf t.rng);
               })
    in
    Op.make ~label:(p.name ^ "-read") ~parse_cost_us:p.parse_cost_us ops
  end
  else begin
    (* post: bump own post_count, then fan a feed_count bump out to a
       power-law number of followers — a read-modify-write multicast *)
    let author = Zipf.scrambled t.zipf t.rng in
    let fanout = draw_fanout t in
    let ops =
      Op.Read { table = table_name; key = key_of author }
      :: Op.Add
           {
             table = table_name;
             key = key_of author;
             col = post_col;
             delta = 1;
           }
      :: List.init fanout (fun j ->
             Op.Add
               {
                 table = table_name;
                 key = key_of (follower p ~author ~j);
                 col = feed_col;
                 delta = 1;
               })
    in
    Op.make ~label:(p.name ^ "-post") ~parse_cost_us:p.parse_cost_us ops
  end
