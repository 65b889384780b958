type t = Det_base.t

let name = "Calvin"

let strategy ~ft_raft =
  {
    Det_base.strat_name = "calvin";
    per_txn_sched_us = 60;  (* ordered-lock scheduling overhead *)
    preprocess_us = 0;
    lock_critical_path = true;
    reservation_aborts = false;
    extra_round_us = 0;
    ft_raft;
  }

let create net cfg = Det_base.create net cfg (strategy ~ft_raft:false)
let create_ft net cfg = Det_base.create net cfg (strategy ~ft_raft:true)
let submit = Det_base.submit
