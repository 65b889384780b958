module Obs = Gg_obs.Obs

type t = {
  sim : Sim.t;
  obs : Obs.t;
  rng : Gg_util.Rng.t;
  topology : Topology.t;
  mutable jitter_frac : float;
  mutable loss : float;
  mutable dup : float;
  mutable reorder : float;
  mutable corrupt : float;
  bandwidth_bps : int;
  down : bool array;
  egress_free : int array; (* absolute time each node's egress pipe frees up *)
  sent_messages : Obs.Counter.t;
  sent_bytes : Obs.Counter.t;
  wan_bytes : Obs.Counter.t;
  dropped : Obs.Counter.t;
  corrupted : Obs.Counter.t;
  wan_bytes_from : int array;
  wan_pair : Obs.Counter.t array array;
      (* [src_region].(dst_region) WAN bytes; diagonal entries are
         unregistered dummies (intra-region traffic is not WAN) *)
}

let create sim ~rng ~topology ?(jitter_frac = 0.05) ?(loss = 0.0) ?(dup = 0.0)
    ?(reorder = 0.0) ?(bandwidth_bps = 100_000_000) () =
  let n = Topology.n_nodes topology in
  let obs = Sim.obs sim in
  (* Every cross-region pair is registered eagerly, in row-major region
     order, so the counter registry's order (and thus every snapshot
     line) is a function of the topology alone, never of which pairs
     happened to see traffic first. *)
  let nr = Topology.n_regions topology in
  let wan_pair =
    Array.init nr (fun a ->
        Array.init nr (fun b ->
            let name =
              Printf.sprintf "net.wan.bytes.%s>%s"
                (Topology.name_of_region topology a)
                (Topology.name_of_region topology b)
            in
            if a = b then Obs.Counter.make name else Obs.counter obs name))
  in
  let t =
    {
      sim;
      obs;
      rng;
      topology;
      jitter_frac;
      loss;
      dup;
      reorder;
      corrupt = 0.0;
      bandwidth_bps;
      down = Array.make n false;
      egress_free = Array.make n 0;
      sent_messages = Obs.counter obs "net.sent.messages";
      sent_bytes = Obs.counter obs "net.sent.bytes";
      wan_bytes = Obs.counter obs "net.wan.bytes";
      dropped = Obs.counter obs "net.dropped.messages";
      corrupted = Obs.counter obs "net.corrupted.messages";
      wan_bytes_from = Array.make n 0;
      wan_pair;
    }
  in
  Obs.on_reset obs (fun () ->
      Array.fill t.wan_bytes_from 0 (Array.length t.wan_bytes_from) 0);
  t

let sim t = t.sim
let topology t = t.topology
let n_nodes t = Topology.n_nodes t.topology

let set_down t node v =
  if t.down.(node) <> v then
    Obs.emit t.obs ~node ~cat:"net" (if v then "down" else "up");
  t.down.(node) <- v

let is_down t node = t.down.(node)

(* Runtime fault knobs: the chaos checker's fault timelines flip these
   mid-run (loss bursts, jitter spikes). Draw order from the shared rng
   is unaffected — only probabilities change — so a schedule of knob
   changes stays deterministic for a fixed seed. *)
let set_loss t p = t.loss <- Float.max 0.0 (Float.min 1.0 p)
let set_dup t p = t.dup <- Float.max 0.0 (Float.min 1.0 p)
let set_reorder t p = t.reorder <- Float.max 0.0 (Float.min 1.0 p)
let set_jitter_frac t f = t.jitter_frac <- Float.max 0.0 f
let set_corrupt_frac t p = t.corrupt <- Float.max 0.0 (Float.min 1.0 p)
let loss t = t.loss
let dup t = t.dup
let reorder t = t.reorder
let jitter_frac t = t.jitter_frac
let corrupt_frac t = t.corrupt

(* Payload corruption is the one fault the transport cannot model by
   itself: the payload is an opaque closure. Senders of binary frames
   (batch wire bytes) call [draw_corrupt] per destination and, on true,
   enqueue a mangled copy instead. Zero probability consumes no
   randomness, like every other knob. *)
let draw_corrupt t =
  t.corrupt > 0.0 && Gg_util.Rng.chance t.rng t.corrupt
  && begin
       Obs.Counter.incr t.corrupted;
       true
     end

let delay t ~src ~dst ~bytes =
  let base = Topology.latency t.topology src dst in
  let jitter =
    if t.jitter_frac <= 0.0 then 0
    else
      int_of_float
        (Gg_util.Rng.exponential t.rng (t.jitter_frac *. float_of_int base))
  in
  (* Egress serialization: the pipe is shared, so messages queue. *)
  let tx_us = bytes * 8 * 1_000_000 / t.bandwidth_bps in
  let now = Sim.now t.sim in
  let start = max now t.egress_free.(src) in
  t.egress_free.(src) <- start + tx_us;
  let reorder_extra =
    if t.reorder > 0.0 && Gg_util.Rng.chance t.rng t.reorder then
      Gg_util.Rng.int_in t.rng base (3 * base)
    else 0
  in
  start - now + tx_us + base + jitter + reorder_extra

let deliver t ~dst ~after k =
  Sim.schedule t.sim ~after (fun () -> if not t.down.(dst) then k ())

let send t ~src ~dst ~bytes k =
  if not (t.down.(src) || t.down.(dst)) then begin
    Obs.Counter.incr t.sent_messages;
    Obs.Counter.add t.sent_bytes bytes;
    let sr = Topology.region_of t.topology src
    and dr = Topology.region_of t.topology dst in
    if sr <> dr then begin
      Obs.Counter.add t.wan_bytes bytes;
      Obs.Counter.add t.wan_pair.(sr).(dr) bytes;
      t.wan_bytes_from.(src) <- t.wan_bytes_from.(src) + bytes
    end;
    if t.loss > 0.0 && Gg_util.Rng.chance t.rng t.loss then begin
      Obs.Counter.incr t.dropped;
      if Obs.tracing t.obs then
        Obs.emit t.obs ~node:src ~cat:"net" "drop"
          ~detail:(Printf.sprintf "dst=%d bytes=%d" dst bytes)
    end
    else begin
      let after = delay t ~src ~dst ~bytes in
      deliver t ~dst ~after k;
      if t.dup > 0.0 && Gg_util.Rng.chance t.rng t.dup then begin
        let extra = delay t ~src ~dst ~bytes in
        deliver t ~dst ~after:(max after extra + 1) k
      end
    end
  end

let broadcast t ~src ~bytes f =
  for dst = 0 to n_nodes t - 1 do
    if dst <> src then send t ~src ~dst ~bytes (f dst)
  done

let sent_messages t = Obs.Counter.value t.sent_messages
let sent_bytes t = Obs.Counter.value t.sent_bytes
let wan_bytes t = Obs.Counter.value t.wan_bytes
let wan_bytes_from t node = t.wan_bytes_from.(node)

let reset_accounting t =
  Obs.Counter.reset t.sent_messages;
  Obs.Counter.reset t.sent_bytes;
  Obs.Counter.reset t.wan_bytes;
  Obs.Counter.reset t.dropped;
  Array.iter (Array.iter Obs.Counter.reset) t.wan_pair;
  Array.fill t.wan_bytes_from 0 (Array.length t.wan_bytes_from) 0
