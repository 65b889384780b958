type t = Det_base.t

let name = "CalvinFS"

let strategy =
  {
    Det_base.strat_name = "calvinfs";
    per_txn_sched_us = 60;
    preprocess_us = 40;  (* metadata block-map lookups *)
    lock_critical_path = true;
    reservation_aborts = false;
    (* quorum round for metadata consistency: intra-region is cheap but
       happens on every round *)
    extra_round_us = 2_000;
    ft_raft = false;
  }

let create net cfg = Det_base.create net cfg strategy
let submit = Det_base.submit
