type t = {
  n : int;
  theta : float;
  alpha : float;
  zetan : float;
  eta : float;
  one_cut : float;  (* 1 + 0.5^theta: [u * zetan] in [1, one_cut) is rank 1 *)
}

let zeta n theta =
  let acc = ref 0.0 in
  for i = 1 to n do
    acc := !acc +. (1.0 /. Float.pow (float_of_int i) theta)
  done;
  !acc

let create ~theta ~n =
  if n <= 0 then invalid_arg "Zipf.create: n must be positive";
  if theta < 0.0 || theta >= 1.0 then
    invalid_arg "Zipf.create: theta must be in [0, 1)";
  if theta = 0.0 then
    (* Uniform special case; the Gray formula divides by zero at theta=0. *)
    { n; theta; alpha = 0.0; zetan = 0.0; eta = 0.0; one_cut = 0.0 }
  else begin
    let zetan = zeta n theta in
    let zeta2 = zeta 2 theta in
    let alpha = 1.0 /. (1.0 -. theta) in
    let eta =
      (1.0 -. Float.pow (2.0 /. float_of_int n) (1.0 -. theta))
      /. (1.0 -. (zeta2 /. zetan))
    in
    { n; theta; alpha; zetan; eta; one_cut = 1.0 +. Float.pow 0.5 theta }
  end

let next t rng =
  if t.theta = 0.0 then Rng.int rng t.n
  else begin
    let u = Rng.float rng 1.0 in
    let uz = u *. t.zetan in
    if uz < 1.0 then 0
    else if uz < t.one_cut then 1
    else
      let v =
        float_of_int t.n
        *. Float.pow ((t.eta *. u) -. t.eta +. 1.0) t.alpha
      in
      let k = int_of_float v in
      if k >= t.n then t.n - 1 else if k < 0 then 0 else k
  end

(* Fibonacci-hash scramble; stays within [0, n). *)
let scrambled t rng =
  let k = next t rng in
  let h = (k * 0x9E3779B1) land max_int in
  h mod t.n
