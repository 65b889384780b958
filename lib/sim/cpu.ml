type job = { cost : int; k : unit -> unit }

type t = {
  sim : Sim.t;
  cores : int;
  mutable busy : int;
  queue : job Queue.t;
  mutable busy_us : int;
}

let create sim ~cores =
  if cores <= 0 then invalid_arg "Cpu.create: cores must be positive";
  { sim; cores; busy = 0; queue = Queue.create (); busy_us = 0 }

let rec start t job =
  t.busy <- t.busy + 1;
  t.busy_us <- t.busy_us + job.cost;
  Sim.schedule t.sim ~after:job.cost (fun () ->
      t.busy <- t.busy - 1;
      (* Free the core before running the continuation so that work the
         continuation submits sees an accurate busy count. *)
      if not (Queue.is_empty t.queue) then start t (Queue.pop t.queue);
      job.k ())

let run t ~cost k =
  if cost <= 0 then Sim.schedule t.sim ~after:0 k
  else begin
    let job = { cost; k } in
    if t.busy < t.cores then start t job else Queue.add job t.queue
  end

let busy t = t.busy
let queued t = Queue.length t.queue

let utilization t ~since =
  let window = Sim.now t.sim - since in
  if window <= 0 then 0.0
  else
    float_of_int t.busy_us /. float_of_int (window * t.cores)
