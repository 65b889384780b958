module Value = Gg_storage.Value
module Schema = Gg_storage.Schema

type config = {
  warehouses : int;
  districts_per_warehouse : int;
  customers_per_district : int;
  items : int;
  new_order_pct : float;
  remote_warehouse_pct : float;
  parse_cost_us : int;
}

let default =
  {
    warehouses = 64;
    districts_per_warehouse = 10;
    customers_per_district = 100;
    items = 1_000;
    new_order_pct = 0.5;
    remote_warehouse_pct = 0.01;
    parse_cost_us = 4_600;
  }

let small =
  {
    default with
    warehouses = 2;
    districts_per_warehouse = 2;
    customers_per_district = 5;
    items = 20;
  }

let col name ty = { Schema.name; ty }

let warehouse_schema =
  Schema.create ~name:"warehouse"
    ~columns:
      [
        col "w_id" Schema.TInt;
        col "w_name" TStr;
        col "w_tax" TFloat;
        col "w_ytd" TInt;
      ]
    ~key:[ "w_id" ]

let district_schema =
  Schema.create ~name:"district"
    ~columns:
      [
        col "d_w_id" Schema.TInt;
        col "d_id" TInt;
        col "d_name" TStr;
        col "d_tax" TFloat;
        col "d_ytd" TInt;
        col "d_next_o_id" TInt;
      ]
    ~key:[ "d_w_id"; "d_id" ]

let customer_schema =
  Schema.create ~name:"customer"
    ~columns:
      [
        col "c_w_id" Schema.TInt;
        col "c_d_id" TInt;
        col "c_id" TInt;
        col "c_name" TStr;
        col "c_balance" TInt;
        col "c_ytd_payment" TInt;
        col "c_payment_cnt" TInt;
        col "c_data" TStr;
      ]
    ~key:[ "c_w_id"; "c_d_id"; "c_id" ]

let item_schema =
  Schema.create ~name:"item"
    ~columns:
      [
        col "i_id" Schema.TInt;
        col "i_name" TStr;
        col "i_price" TInt;
        col "i_data" TStr;
      ]
    ~key:[ "i_id" ]

let stock_schema =
  Schema.create ~name:"stock"
    ~columns:
      [
        col "s_w_id" Schema.TInt;
        col "s_i_id" TInt;
        col "s_quantity" TInt;
        col "s_ytd" TInt;
        col "s_order_cnt" TInt;
        col "s_data" TStr;
      ]
    ~key:[ "s_w_id"; "s_i_id" ]

let orders_schema =
  Schema.create ~name:"orders"
    ~columns:
      [
        col "o_w_id" Schema.TInt;
        col "o_d_id" TInt;
        col "o_id" TInt;
        col "o_c_id" TInt;
        col "o_entry_d" TInt;
        col "o_ol_cnt" TInt;
        col "o_carrier_id" TInt;
      ]
    ~key:[ "o_w_id"; "o_d_id"; "o_id" ]

let order_line_schema =
  Schema.create ~name:"order_line"
    ~columns:
      [
        col "ol_w_id" Schema.TInt;
        col "ol_d_id" TInt;
        col "ol_o_id" TInt;
        col "ol_number" TInt;
        col "ol_i_id" TInt;
        col "ol_quantity" TInt;
        col "ol_amount" TInt;
      ]
    ~key:[ "ol_w_id"; "ol_d_id"; "ol_o_id"; "ol_number" ]

let schemas =
  [
    warehouse_schema;
    district_schema;
    customer_schema;
    item_schema;
    stock_schema;
    orders_schema;
    order_line_schema;
  ]

(* Every value a loaded row holds is immutable, and a row array is never
   written in place once installed ([Gg_storage.Table]'s invariant), so
   the rows share one value per distinct filler and integer instead of
   boxing each anew: the image holds each distinct value once. The
   contents, and so every digest, are those of per-row values. *)
let load cfg db =
  let wh = Gg_storage.Db.add_table db warehouse_schema in
  let di = Gg_storage.Db.add_table db district_schema in
  let cu = Gg_storage.Db.add_table db customer_schema in
  let it = Gg_storage.Db.add_table db item_schema in
  let st = Gg_storage.Db.add_table db stock_schema in
  let _or = Gg_storage.Db.add_table db orders_schema in
  let _ol = Gg_storage.Db.add_table db order_line_schema in
  let pad n = Value.Str (String.make n 'x') in
  let pad10 = pad 10 and pad16 = pad 16 and pad24 = pad 24 and pad50 = pad 50 in
  let pad250 = pad 250 in
  (* item ids, prices (100..999), quantities and the small constants *)
  let ints = Array.init (max cfg.items 999 + 1) (fun i -> Value.Int i) in
  let int i = if i < Array.length ints then ints.(i) else Value.Int i in
  let tax = Value.Float 0.1 in
  let w_ytd = Value.Int 300_000 and d_ytd = Value.Int 30_000 in
  let d_next_o_id = Value.Int 3_001 and c_balance = Value.Int (-10) in
  for i = 1 to cfg.items do
    Gg_storage.Table.load it [| int i; pad24; int (100 + (i mod 900)); pad50 |]
  done;
  for w = 1 to cfg.warehouses do
    let w = int w in
    Gg_storage.Table.load wh [| w; pad10; tax; w_ytd |];
    for d = 1 to cfg.districts_per_warehouse do
      let d = int d in
      Gg_storage.Table.load di [| w; d; pad10; tax; d_ytd; d_next_o_id |];
      for c = 1 to cfg.customers_per_district do
        Gg_storage.Table.load cu
          [| w; d; int c; pad16; c_balance; int 10; int 1; pad250 |]
      done
    done;
    for i = 1 to cfg.items do
      Gg_storage.Table.load st
        [| w; int i; int (10 + (i mod 90)); int 0; int 0; pad50 |]
    done
  done

type t = {
  cfg : config;
  rng : Gg_util.Rng.t;
  node : int;
  mutable next_order_seq : int;
  full_mix : bool;
  (* orders this generator created, per district, for Order-Status and
     Delivery: (o_id, c_id, ol_cnt), oldest first *)
  recent_orders : (int * int, (int * int * int) Queue.t) Hashtbl.t;
}

let create ?(full_mix = false) cfg ~seed ~node =
  {
    cfg;
    rng = Gg_util.Rng.create seed;
    node;
    next_order_seq = 0;
    full_mix;
    recent_orders = Hashtbl.create 64;
  }

let config t = t.cfg

let pick_warehouse t = 1 + Gg_util.Rng.int t.rng t.cfg.warehouses
let pick_district t = 1 + Gg_util.Rng.int t.rng t.cfg.districts_per_warehouse
let pick_customer t = 1 + Gg_util.Rng.int t.rng t.cfg.customers_per_district
let pick_item t = 1 + Gg_util.Rng.int t.rng t.cfg.items

(* Order ids are namespaced by node so concurrent multi-master inserts
   never collide (the SQL path would draw them from d_next_o_id; at the
   op level keys must be predetermined). *)
let fresh_order_id t =
  t.next_order_seq <- t.next_order_seq + 1;
  ((t.node + 1) * 10_000_000) + t.next_order_seq

let new_order t =
  let w = pick_warehouse t and d = pick_district t and c = pick_customer t in
  let o_id = fresh_order_id t in
  let n_items = 5 + Gg_util.Rng.int t.rng 11 in
  let item_ops =
    List.concat_map
      (fun _ ->
        let i = pick_item t in
        let sw =
          if Gg_util.Rng.chance t.rng t.cfg.remote_warehouse_pct then
            pick_warehouse t
          else w
        in
        [
          Op.Read { table = "item"; key = [| Value.Int i |] };
          Op.Add
            {
              table = "stock";
              key = [| Value.Int sw; Value.Int i |];
              col = 2; (* s_quantity *)
              delta = -(1 + Gg_util.Rng.int t.rng 10);
            };
        ])
      (List.init n_items (fun i -> i))
  in
  let line_ops =
    List.mapi
      (fun idx _ ->
        Op.Insert
          {
            table = "order_line";
            key = [| Value.Int w; Value.Int d; Value.Int o_id; Value.Int (idx + 1) |];
            data =
              [|
                Value.Int w; Value.Int d; Value.Int o_id; Value.Int (idx + 1);
                Value.Int (pick_item t); Value.Int 5; Value.Int 500;
              |];
          })
      (List.init n_items (fun i -> i))
  in
  let q =
    match Hashtbl.find_opt t.recent_orders (w, d) with
    | Some q -> q
    | None ->
      let q = Queue.create () in
      Hashtbl.replace t.recent_orders (w, d) q;
      q
  in
  Queue.add (o_id, c, n_items) q;
  if Queue.length q > 64 then ignore (Queue.pop q);
  let ops =
    (Op.Read { table = "warehouse"; key = [| Value.Int w |] }
    :: Op.Add
         {
           table = "district";
           key = [| Value.Int w; Value.Int d |];
           col = 5; (* d_next_o_id *)
           delta = 1;
         }
    :: Op.Read { table = "customer"; key = [| Value.Int w; Value.Int d; Value.Int c |] }
    :: item_ops)
    @ (Op.Insert
         {
           table = "orders";
           key = [| Value.Int w; Value.Int d; Value.Int o_id |];
           data =
             [|
               Value.Int w; Value.Int d; Value.Int o_id; Value.Int c;
               Value.Int 20230101; Value.Int n_items; Value.Int 0;
             |];
         }
      :: line_ops)
  in
  Op.make ~label:"new_order" ~parse_cost_us:t.cfg.parse_cost_us ops

let payment t =
  let w = pick_warehouse t and d = pick_district t and c = pick_customer t in
  let amount = 100 + Gg_util.Rng.int t.rng 4_900 in
  let ops =
    [
      Op.Add { table = "warehouse"; key = [| Value.Int w |]; col = 3; delta = amount };
      Op.Add
        { table = "district"; key = [| Value.Int w; Value.Int d |]; col = 4; delta = amount };
      Op.Read { table = "customer"; key = [| Value.Int w; Value.Int d; Value.Int c |] };
      Op.Add
        {
          table = "customer";
          key = [| Value.Int w; Value.Int d; Value.Int c |];
          col = 4; (* c_balance *)
          delta = -amount;
        };
    ]
  in
  Op.make ~label:"payment" ~parse_cost_us:t.cfg.parse_cost_us ops

(* Order-Status: read-only — customer, her latest known order, and its
   first order lines. *)
let order_status t =
  let w = pick_warehouse t and d = pick_district t in
  let base =
    [ Op.Read { table = "customer"; key = [| Value.Int w; Value.Int d; Value.Int (pick_customer t) |] } ]
  in
  let ops =
    match Hashtbl.find_opt t.recent_orders (w, d) with
    | Some q when not (Queue.is_empty q) ->
      let o_id, c, ol_cnt =
        Queue.fold (fun _ x -> x) (Queue.peek q) q (* newest *)
      in
      Op.Read { table = "customer"; key = [| Value.Int w; Value.Int d; Value.Int c |] }
      :: Op.Read { table = "orders"; key = [| Value.Int w; Value.Int d; Value.Int o_id |] }
      :: List.init (min 3 ol_cnt) (fun i ->
             Op.Read
               { table = "order_line";
                 key = [| Value.Int w; Value.Int d; Value.Int o_id; Value.Int (i + 1) |] })
    | _ -> base
  in
  Op.make ~label:"order_status" ~parse_cost_us:t.cfg.parse_cost_us ops

(* Delivery: deliver the oldest undelivered order in each district of a
   warehouse — stamp the carrier and credit the customer. *)
let delivery t =
  let w = pick_warehouse t in
  let carrier = 1 + Gg_util.Rng.int t.rng 10 in
  let ops =
    List.concat_map
      (fun d ->
        match Hashtbl.find_opt t.recent_orders (w, d) with
        | Some q when not (Queue.is_empty q) ->
          let o_id, c, _ = Queue.pop q in
          [
            Op.Add
              { table = "orders";
                key = [| Value.Int w; Value.Int d; Value.Int o_id |];
                col = 6; (* o_carrier_id *)
                delta = carrier };
            Op.Add
              { table = "customer";
                key = [| Value.Int w; Value.Int d; Value.Int c |];
                col = 4; (* c_balance *)
                delta = 100 };
          ]
        | _ -> [])
      (List.init t.cfg.districts_per_warehouse (fun d -> d + 1))
  in
  if ops = [] then payment t
  else Op.make ~label:"delivery" ~parse_cost_us:t.cfg.parse_cost_us ops

(* Stock-Level: read-only — district plus a sample of stock rows. *)
let stock_level t =
  let w = pick_warehouse t and d = pick_district t in
  let ops =
    Op.Read { table = "district"; key = [| Value.Int w; Value.Int d |] }
    :: List.init 10 (fun _ ->
           Op.Read { table = "stock"; key = [| Value.Int w; Value.Int (pick_item t) |] })
  in
  Op.make ~label:"stock_level" ~parse_cost_us:t.cfg.parse_cost_us ops

let next_txn t =
  if t.full_mix then begin
    (* the standard TPC-C mix: 45/43/4/4/4 *)
    let r = Gg_util.Rng.int t.rng 100 in
    if r < 45 then new_order t
    else if r < 88 then payment t
    else if r < 92 then order_status t
    else if r < 96 then delivery t
    else stock_level t
  end
  else if Gg_util.Rng.chance t.rng t.cfg.new_order_pct then new_order t
  else payment t
