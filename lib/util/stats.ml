module Acc = struct
  type t = {
    mutable count : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
    mutable total : float;
  }

  let create () =
    { count = 0; mean = 0.0; m2 = 0.0; min = nan; max = nan; total = 0.0 }

  let add t x =
    t.count <- t.count + 1;
    t.total <- t.total +. x;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.count);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if t.count = 1 then begin
      t.min <- x;
      t.max <- x
    end else begin
      if x < t.min then t.min <- x;
      if x > t.max then t.max <- x
    end

  let count t = t.count
  let mean t = if t.count = 0 then 0.0 else t.mean
  let variance t = if t.count < 2 then 0.0 else t.m2 /. float_of_int (t.count - 1)
  let min t = t.min
  let max t = t.max
  let total t = t.total

  let merge a b =
    if a.count = 0 then { b with count = b.count }
    else if b.count = 0 then { a with count = a.count }
    else begin
      let count = a.count + b.count in
      let delta = b.mean -. a.mean in
      let mean =
        a.mean +. (delta *. float_of_int b.count /. float_of_int count)
      in
      let m2 =
        a.m2 +. b.m2
        +. (delta *. delta
            *. float_of_int a.count *. float_of_int b.count
            /. float_of_int count)
      in
      {
        count;
        mean;
        m2;
        min = Stdlib.min a.min b.min;
        max = Stdlib.max a.max b.max;
        total = a.total +. b.total;
      }
    end
end

module Hist = struct
  (* Buckets grow by [growth] per step starting from [first]; values below
     [first] all land in bucket 0. *)
  let first = 1.0
  let growth = 1.04
  let log_growth = log growth
  let n_buckets = 1024

  type t = {
    buckets : int array;
    mutable count : int;
    mutable sum : float;
    mutable max : float;
  }

  let create () =
    { buckets = Array.make n_buckets 0; count = 0; sum = 0.0; max = 0.0 }

  let bucket_of x =
    if x <= first then 0
    else
      let b = 1 + int_of_float (log (x /. first) /. log_growth) in
      if b >= n_buckets then n_buckets - 1 else b

  (* Representative (upper bound) value for a bucket. *)
  let value_of b = if b = 0 then first else first *. Float.pow growth (float_of_int b)

  let add t x =
    let x = Stdlib.max 0.0 x in
    let b = bucket_of x in
    t.buckets.(b) <- t.buckets.(b) + 1;
    t.count <- t.count + 1;
    t.sum <- t.sum +. x;
    if x > t.max then t.max <- x

  let count t = t.count
  let mean t = if t.count = 0 then 0.0 else t.sum /. float_of_int t.count

  (* Linear interpolation between the crossing bucket's bounds: returning
     the bucket's upper bound alone overstates tails by up to one growth
     step (4%), which is visible on p95/p99 of tight distributions. The
     target rank is placed proportionally between the bucket's lower and
     upper bound by how far into the bucket's population it falls, then
     clamped to the observed maximum. *)
  let percentile t p =
    if t.count = 0 then 0.0
    else begin
      let target = p /. 100.0 *. float_of_int t.count in
      let rec loop b seen =
        if b >= n_buckets then t.max
        else
          let in_bucket = t.buckets.(b) in
          let seen' = seen + in_bucket in
          if float_of_int seen' >= target && in_bucket > 0 then begin
            let lo = if b = 0 then 0.0 else value_of (b - 1) in
            let hi = value_of b in
            let frac =
              (target -. float_of_int seen) /. float_of_int in_bucket
            in
            let frac = Stdlib.max 0.0 (Stdlib.min 1.0 frac) in
            Stdlib.min (lo +. ((hi -. lo) *. frac)) t.max
          end
          else loop (b + 1) seen'
      in
      loop 0 0
    end

  let p50 t = percentile t 50.0
  let p95 t = percentile t 95.0
  let p99 t = percentile t 99.0
  let max t = t.max

  let merge a b =
    let r = create () in
    for i = 0 to n_buckets - 1 do
      r.buckets.(i) <- a.buckets.(i) + b.buckets.(i)
    done;
    r.count <- a.count + b.count;
    r.sum <- a.sum +. b.sum;
    r.max <- Stdlib.max a.max b.max;
    r
end

module Series = struct
  type t = { mutable xs : float list; mutable ys : float list; mutable n : int }

  let create () = { xs = []; ys = []; n = 0 }

  let add t ~x ~y =
    t.xs <- x :: t.xs;
    t.ys <- y :: t.ys;
    t.n <- t.n + 1

  let length t = t.n

  let points t =
    let xs = Array.of_list (List.rev t.xs) in
    let ys = Array.of_list (List.rev t.ys) in
    Array.map2 (fun x y -> (x, y)) xs ys
end
