type job = { cost : int; k : unit -> unit }

(* The run queue is a slot-clearing ring ({!Gg_util.Fifo}): a linked
   queue keeps its dequeued cells linked, so on a saturated node one
   promoted cell would drag every later job (its closure, transaction
   and request) into the major heap. *)
type t = {
  sim : Sim.t;
  cores : int;
  mutable busy : int;
  queue : job Gg_util.Fifo.t;
  mutable busy_us : int;
}

let no_job = { cost = 0; k = ignore }

let create sim ~cores =
  if cores <= 0 then invalid_arg "Cpu.create: cores must be positive";
  {
    sim;
    cores;
    busy = 0;
    queue = Gg_util.Fifo.create ~filler:no_job;
    busy_us = 0;
  }

let rec start t job =
  t.busy <- t.busy + 1;
  t.busy_us <- t.busy_us + job.cost;
  Sim.schedule t.sim ~after:job.cost (fun () ->
      t.busy <- t.busy - 1;
      (* Free the core before running the continuation so that work the
         continuation submits sees an accurate busy count. *)
      if not (Gg_util.Fifo.is_empty t.queue) then
        start t (Gg_util.Fifo.pop t.queue);
      job.k ())

let run t ~cost k =
  if cost <= 0 then Sim.schedule t.sim ~after:0 k
  else begin
    let job = { cost; k } in
    if t.busy < t.cores then start t job else Gg_util.Fifo.push t.queue job
  end

let busy t = t.busy
let queued t = Gg_util.Fifo.length t.queue

let utilization t ~since =
  let window = Sim.now t.sim - since in
  if window <= 0 then 0.0
  else
    float_of_int t.busy_us /. float_of_int (window * t.cores)
