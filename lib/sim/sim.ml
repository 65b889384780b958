type t = {
  mutable now : int;
  events : Gg_obs.Obs.Counter.t;
  obs : Gg_obs.Obs.t;
  queue : (unit -> unit) Event_queue.t;
}

let create ?obs () =
  let obs = match obs with Some o -> o | None -> Gg_obs.Obs.create () in
  let t =
    {
      now = 0;
      events = Gg_obs.Obs.counter obs "sim.events";
      obs;
      queue = Event_queue.create ~filler:ignore;
    }
  in
  Gg_obs.Obs.set_clock obs (fun () -> t.now);
  t

let now t = t.now
let events t = Gg_obs.Obs.Counter.value t.events
let obs t = t.obs

type timer = (unit -> unit) Event_queue.handle

let schedule_timer t ~after f =
  Event_queue.add t.queue ~time:(t.now + max 0 after) f

let schedule t ~after f = ignore (schedule_timer t ~after f)

let cancel t timer = Event_queue.cancel t.queue timer

let schedule_at t time f =
  Event_queue.push t.queue ~time:(max time t.now) f

let step t =
  match Event_queue.pop t.queue with
  | None -> false
  | Some (time, f) ->
    t.now <- max t.now time;
    Gg_obs.Obs.Counter.incr t.events;
    f ();
    true

let run t = while step t do () done

let run_until t limit =
  let continue = ref true in
  while !continue do
    match Event_queue.peek_time t.queue with
    | Some time when time <= limit -> ignore (step t)
    | Some _ | None -> continue := false
  done;
  if t.now < limit then t.now <- limit

let pending t = Event_queue.length t.queue

let us x = x
let ms x = x * 1_000
let sec x = x * 1_000_000
let to_ms x = float_of_int x /. 1_000.0
