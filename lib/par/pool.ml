let max_jobs = 16

let default_jobs () = max 1 (min max_jobs (Domain.recommended_domain_count ()))

type pool = {
  n : int;
  queue : (unit -> unit) Queue.t;
  mutex : Mutex.t;
  work_cv : Condition.t;
  mutable closing : bool;
  mutable domains : unit Domain.t array;
}

type t = Seq | Par of pool

let jobs = function Seq -> 1 | Par p -> p.n

let rec worker p =
  Mutex.lock p.mutex;
  while Queue.is_empty p.queue && not p.closing do
    Condition.wait p.work_cv p.mutex
  done;
  if Queue.is_empty p.queue then Mutex.unlock p.mutex (* closing *)
  else begin
    let task = Queue.pop p.queue in
    Mutex.unlock p.mutex;
    task ();
    worker p
  end

let create ~jobs =
  let jobs = if jobs <= 0 then default_jobs () else min jobs max_jobs in
  if jobs = 1 then Seq
  else begin
    let p =
      {
        n = jobs;
        queue = Queue.create ();
        mutex = Mutex.create ();
        work_cv = Condition.create ();
        closing = false;
        domains = [||];
      }
    in
    p.domains <- Array.init jobs (fun _ -> Domain.spawn (fun () -> worker p));
    Par p
  end

let seq = Seq

let shutdown = function
  | Seq -> ()
  | Par p ->
    Mutex.lock p.mutex;
    p.closing <- true;
    Condition.broadcast p.work_cv;
    Mutex.unlock p.mutex;
    Array.iter Domain.join p.domains;
    p.domains <- [||]

let submit p task =
  Mutex.lock p.mutex;
  if p.closing then begin
    Mutex.unlock p.mutex;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  Queue.push task p.queue;
  Condition.signal p.work_cv;
  Mutex.unlock p.mutex

(* Tasks stash [Ok result] or [Error exn] into their submission slot;
   the caller consumes the slots as a strictly growing prefix. On a
   task exception we stop delivering results but still wait for every
   task to finish (nothing outlives the call), then re-raise the
   lowest-index exception. *)
let iter_ordered t thunks ~f =
  match t with
  | Seq -> List.iteri (fun i thunk -> f i (thunk ())) thunks
  | Par p ->
    let n = List.length thunks in
    if n > 0 then begin
      let slots = Array.make n None in
      let done_mutex = Mutex.create () in
      let done_cv = Condition.create () in
      let completed = ref 0 in
      List.iteri
        (fun i thunk ->
          submit p (fun () ->
              let r =
                try Ok (thunk ())
                with e ->
                  let bt = Printexc.get_raw_backtrace () in
                  Error (e, bt)
              in
              Mutex.lock done_mutex;
              slots.(i) <- Some r;
              incr completed;
              Condition.broadcast done_cv;
              Mutex.unlock done_mutex))
        thunks;
      let first_error = ref None in
      let next = ref 0 in
      Mutex.lock done_mutex;
      while !next < n do
        match slots.(!next) with
        | Some r ->
          let i = !next in
          incr next;
          slots.(i) <- None;
          (match (r, !first_error) with
          | Ok v, None ->
            (* Deliver outside the lock: [f] may be slow (shrinking a
               failure reruns whole simulations). *)
            Mutex.unlock done_mutex;
            f i v;
            Mutex.lock done_mutex
          | Ok _, Some _ -> ()
          | Error e, None -> first_error := Some e
          | Error _, Some _ -> ())
        | None -> Condition.wait done_cv done_mutex
      done;
      (* All slots consumed in order; stragglers cannot exist (slot n-1
         was filled), but [completed] documents the invariant. *)
      while !completed < n do
        Condition.wait done_cv done_mutex
      done;
      Mutex.unlock done_mutex;
      match !first_error with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()
    end

let run t thunks =
  let n = List.length thunks in
  let out = Array.make (max n 1) None in
  iter_ordered t thunks ~f:(fun i v -> out.(i) <- Some v);
  List.init n (fun i -> Option.get out.(i))

let map t f xs = run t (List.map (fun x () -> f x) xs)

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

module Local = struct
  type 'a t = 'a Domain.DLS.key

  let create init = Domain.DLS.new_key init
  let get = Domain.DLS.get
end
