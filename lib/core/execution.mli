(** Algorithm 1 up to the commit point: a local transaction's execution
    and its read validation. The one home of the isolation policy:
    {!create} reads {!Params.t.isolation} once and fixes whether the
    executors build a read set (RR, SI, SSI) and track column masks,
    the validation rule, whether write sets ship their read keys (SSI,
    §4.3) and how their meta is stamped. The epoch, dissemination and
    merge past the commit point are the node's. *)

type t

val create :
  Params.t -> sim:Gg_sim.Sim.t -> cpu:Gg_sim.Cpu.t -> db:Gg_storage.Db.t -> t

val ssi : t -> bool
(** Write sets carry their read keys, so the epoch merge must check
    rw-antidependencies ({!Epoch_merge.run}'s [~ssi]). *)

type verdict =
  | Commit_point  (** executed, every read still valid: {!stamp} and commit *)
  | Read_invalid  (** a read failed {!valid} at the commit point *)
  | Failed of string
      (** a statement failed (constraint violation) before the commit
          point *)

val run : t -> Txn.t -> (verdict -> unit) -> unit
(** Execute the request through {!Op_exec} or the SQL executor and call
    the continuation once, at the simulated instant of the verdict. An
    op-level transaction pays its parse cost, reads at the start of one
    [n_ops * exec_op_us] slice and reaches the commit point at its end
    plus [exec_extra_us]; SQL pays a parse + execution slice per
    statement, so later statements see the snapshots generated
    meanwhile. Sets the phases' [parse_us] and [exec_us], the read set,
    the SQL results and the write set (meta not yet stamped). *)

val cached_statements : t -> int
(** How many SQL texts {!run} holds compiled. Each text is parsed and
    compiled ({!Gg_sql.Executor.compile}) once, its error included, and
    run from the kept plan after that with each execution's parameters.
    Past 256 distinct texts the table starts over, and it is emptied
    whenever the database's {!Gg_storage.Db.catalog} moves (a table
    created or replaced, an index created). The simulated parse slice
    is charged either way. *)

val valid : t -> Txn.t -> bool
(** Algorithm 1's read validation against the database as it stands.
    RC accepts every read. Above RC a read fails when its row vanished
    or is a tombstone; RR also when the row's csn differs from the one
    read, SI and SSI when the row's [cen - 1 > txn.lsn] (rewritten after
    the read snapshot). *)

val stamp :
  t -> Txn.t -> Gg_crdt.Writeset.t -> cen:int -> csn:Gg_storage.Csn.t ->
  Gg_crdt.Writeset.t
(** The write set stamped with its commit epoch and csn (and under SSI
    the read keys), also recorded on the transaction with [cen] and
    [csn]. *)
