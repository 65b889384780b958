module Stats = Gg_util.Stats

module Counter = struct
  type t = { name : string; mutable v : int }

  let make name = { name; v = 0 }
  let name c = c.name
  let incr c = c.v <- c.v + 1
  let add c n = c.v <- c.v + n
  let value c = c.v
  let set c v = c.v <- v
  let reset c = c.v <- 0
end

module Gauge = struct
  type t = { name : string; mutable v : float }

  let make name = { name; v = 0.0 }
  let name g = g.name
  let set g v = g.v <- v
  let value g = g.v
  let reset g = g.v <- 0.0
end

module Histogram = struct
  type t = { name : string; mutable h : Stats.Hist.t }

  let make name = { name; h = Stats.Hist.create () }
  let name h = h.name
  let observe t x = Stats.Hist.add t.h x
  let hist t = t.h
  let count t = Stats.Hist.count t.h
  let reset t = t.h <- Stats.Hist.create ()
end

type instrument =
  | I_counter of Counter.t
  | I_gauge of Gauge.t
  | I_histogram of Histogram.t

module Trace = struct
  type event = {
    at : int;
    node : int;
    cat : string;
    name : string;
    epoch : int;
    span : int;
    parent : int;
    dur : int;
    detail : string;
  }

  let dummy =
    {
      at = 0;
      node = -1;
      cat = "";
      name = "";
      epoch = -1;
      span = -1;
      parent = -1;
      dur = -1;
      detail = "";
    }

  type t = {
    capacity : int;
    mutable buf : event array;  (* [||] until tracing is first enabled *)
    mutable next : int;  (* next write slot *)
    mutable total : int;  (* events recorded since last clear *)
  }

  let create ~capacity = { capacity = max 1 capacity; buf = [||]; next = 0; total = 0 }

  let ensure_buf t = if t.buf = [||] then t.buf <- Array.make t.capacity dummy

  let record t e =
    t.buf.(t.next) <- e;
    t.next <- (t.next + 1) mod t.capacity;
    t.total <- t.total + 1

  let clear t =
    t.next <- 0;
    t.total <- 0

  let total t = t.total
  let dropped t = max 0 (t.total - t.capacity)

  let events t =
    if t.buf = [||] || t.total = 0 then []
    else if t.total <= t.capacity then Array.to_list (Array.sub t.buf 0 t.total)
    else
      (* wrapped: oldest surviving event sits at [next] *)
      Array.to_list
        (Array.append
           (Array.sub t.buf t.next (t.capacity - t.next))
           (Array.sub t.buf 0 t.next))
end

type t = {
  mutable clock : unit -> int;
  mutable tracing : bool;
  trace : Trace.t;
  by_name : (string, instrument) Hashtbl.t;
  mutable order : instrument list;  (* reverse registration order *)
  mutable reset_hooks : (unit -> unit) list;  (* reverse registration order *)
  mutable span_seq : int;  (* causal span allocator; never reset *)
}

let create ?(trace_capacity = 1 lsl 18) () =
  {
    clock = (fun () -> 0);
    tracing = false;
    trace = Trace.create ~capacity:trace_capacity;
    by_name = Hashtbl.create 64;
    order = [];
    reset_hooks = [];
    span_seq = 0;
  }

let set_clock t f = t.clock <- f
let now t = t.clock ()

let register t name i =
  Hashtbl.replace t.by_name name i;
  t.order <- i :: t.order

let kind_error name = invalid_arg ("Obs: instrument kind mismatch for " ^ name)

let counter t name =
  match Hashtbl.find_opt t.by_name name with
  | Some (I_counter c) -> c
  | Some _ -> kind_error name
  | None ->
    let c = Counter.make name in
    register t name (I_counter c);
    c

let gauge t name =
  match Hashtbl.find_opt t.by_name name with
  | Some (I_gauge g) -> g
  | Some _ -> kind_error name
  | None ->
    let g = Gauge.make name in
    register t name (I_gauge g);
    g

let histogram t name =
  match Hashtbl.find_opt t.by_name name with
  | Some (I_histogram h) -> h
  | Some _ -> kind_error name
  | None ->
    let h = Histogram.make name in
    register t name (I_histogram h);
    h

let on_reset t f = t.reset_hooks <- f :: t.reset_hooks

let reset_all t =
  List.iter
    (function
      | I_counter c -> Counter.reset c
      | I_gauge g -> Gauge.reset g
      | I_histogram h -> Histogram.reset h)
    t.order;
  List.iter (fun f -> f ()) (List.rev t.reset_hooks);
  Trace.clear t.trace

let counter_values t =
  List.rev t.order
  |> List.filter_map (function
       | I_counter c -> Some (Counter.name c, Counter.value c)
       | I_gauge _ | I_histogram _ -> None)

let tracing t = t.tracing

let set_tracing t v =
  if v then Trace.ensure_buf t.trace;
  t.tracing <- v

(* Causal span ids: a process-unique sequence number with the allocating
   node packed into the low bits, so an id decodes back to its origin
   without a lookup. Allocation rides the (single-threaded) simulation
   event loop, never the harness domain pool, so the id stream is
   deterministic at any --jobs width. The sequence is
   deliberately NOT cleared by [reset_all]: spans allocated before the
   warm-up reset may still be referenced by in-flight wire messages, and
   re-using their ids would fabricate causal edges. *)
let span_node_bits = 10
let span_node_mask = (1 lsl span_node_bits) - 1

let new_span t ~node =
  if not t.tracing then 0
  else begin
    t.span_seq <- t.span_seq + 1;
    (t.span_seq lsl span_node_bits) lor ((node + 1) land span_node_mask)
  end

let span_node span = (span land span_node_mask) - 1

let emit t ?at ?(node = -1) ?(epoch = -1) ?(span = -1) ?(parent = -1)
    ?(dur = -1) ?(detail = "") ~cat name =
  if t.tracing then
    let at = match at with Some a -> a | None -> t.clock () in
    Trace.record t.trace
      { Trace.at; node; cat; name; epoch; span; parent; dur; detail }

let events t = Trace.events t.trace
let events_total t = Trace.total t.trace
let dropped_events t = Trace.dropped t.trace
