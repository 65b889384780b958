type t = Det_base.t

let name = "Q-Store"

let strategy =
  {
    Det_base.strat_name = "qstore";
    per_txn_sched_us = 15;  (* queue-oriented planning is nearly free *)
    preprocess_us = 20;  (* planner builds per-partition queues *)
    lock_critical_path = true;  (* conflicting queues still serialize *)
    reservation_aborts = false;
    extra_round_us = 0;
    ft_raft = false;
  }

let create net cfg = Det_base.create net cfg strategy
let submit = Det_base.submit
