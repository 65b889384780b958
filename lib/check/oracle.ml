module Rng = Gg_util.Rng
module Params = Geogauss.Params
module Cluster = Geogauss.Cluster
module Node = Geogauss.Node
module Backup = Geogauss.Backup
module Txn = Geogauss.Txn
module Db = Gg_storage.Db
module Table = Gg_storage.Table
module Csn = Gg_storage.Csn
module Row_header = Gg_storage.Row_header
module Writeset = Gg_crdt.Writeset
module Meta = Gg_crdt.Meta
module Column = Gg_crdt.Column
module Rows = Merge_model.Rows

type invariant = Convergence | Monotonicity | Durability | Aci | Isolation

let invariant_to_string = function
  | Convergence -> "convergence"
  | Monotonicity -> "monotonicity"
  | Durability -> "durability"
  | Aci -> "aci-merge"
  | Isolation -> "isolation"

type violation = {
  invariant : invariant;
  epoch : int;
  node : int;
  detail : string;
}

let violation_to_string v =
  Printf.sprintf "invariant=%s epoch=%d node=%d detail=%S"
    (invariant_to_string v.invariant)
    v.epoch v.node v.detail

type commit = {
  c_node : int;
  c_cen : int;
  c_csn : Csn.t;
  c_rows : (string * string * Writeset.op) list;  (* table, key, op *)
}

type t = {
  cluster : Cluster.t;
  variant : Params.variant;
  level : Params.merge_level;
      (* the EFFECTIVE merge level: under column-level merge, isolation
         admits several committed updaters per row (cell-granularity
         conflicts) and durability checks an update's row survived its
         epoch rather than that its csn owns the header *)
  mutable violations : violation list;  (* newest first *)
  digest_at : (int, (int * string) list) Hashtbl.t;  (* lsn -> digests *)
  last_lsn : int array;
  mutable commits : commit list;
  epoch_writers : (int, (string, Csn.t * Writeset.op) Hashtbl.t) Hashtbl.t;
  replay_rng : Rng.t;
}

let record t ~invariant ~epoch ~node detail =
  if List.length t.violations < 32 then
    t.violations <- { invariant; epoch; node; detail } :: t.violations

let violations t = List.rev t.violations
let first t = match List.rev t.violations with [] -> None | v :: _ -> Some v

let row_id ~table ~key = String.concat "\x00" [ table; key ]

(* --- (4) ACI merge laws on real traffic -------------------------------

   The merged outcome of an epoch must be independent of delivery order
   and duplication (Lemma 2 / Theorem 1: the per-row winner is the
   join of a semilattice). Join the epoch's full batch set — taken
   from the backup store, which holds exactly what replicas merged —
   twice with the reference model's joins: once as-is, once permuted
   with a random prefix duplicated. Identical per-row winners or the
   merge is not a CRDT. Under column-level merge the per-(row, column)
   cell winners must match too; they are joined over every candidate
   update (the lattice law holds for any subset, so candidates are the
   stronger check). *)

let check_aci t ~epoch =
  let backup = Cluster.backup t.cluster in
  let txns =
    List.concat_map
      (fun node ->
        match Backup.get backup ~node ~cen:epoch with
        | None -> []
        | Some b -> b.Writeset.Batch.txns)
      (List.init (Cluster.n_nodes t.cluster) Fun.id)
  in
  if txns <> [] then begin
    let arr = Array.of_list txns in
    Rng.shuffle t.replay_rng arr;
    let dup_n = 1 + Rng.int t.replay_rng (Array.length arr) in
    let permuted =
      Array.to_list arr @ Array.to_list (Array.sub arr 0 dup_n)
    in
    let aci fmt = Printf.ksprintf (record t ~invariant:Aci ~epoch ~node:(-1)) fmt in
    let id (table, key) = row_id ~table ~key in
    let same_csn (a : Meta.t) (b : Meta.t) = Csn.equal a.Meta.csn b.Meta.csn in
    let reference = Merge_model.join_headers txns in
    let alt = Merge_model.join_headers permuted in
    let n = Rows.cardinal reference and n' = Rows.cardinal alt in
    if n' <> n then aci "replay row count %d <> %d" n' n
    else
      Rows.iter
        (fun row (c : Column.claim) ->
          match Rows.find_opt row alt with
          | None -> aci "row %S missing from permuted replay" (id row)
          | Some c' when not (same_csn c.Column.c_meta c'.Column.c_meta) ->
            aci "row %S winner differs under permutation+duplication" (id row)
          | Some _ -> ())
        reference;
    if t.level = Params.Column then
      Rows.merge
        (fun _ a b -> Some (a, b))
        (Merge_model.join_cells txns)
        (Merge_model.join_cells permuted)
      |> Rows.iter (fun row -> function
           | Some _, None -> aci "row %S cells missing from permuted replay" (id row)
           | cells, cells' ->
             let cell a i =
               match a with Some a when i < Array.length a -> a.(i) | _ -> None
             in
             let width a = Option.fold ~none:0 ~some:Array.length a in
             for i = 0 to max (width cells) (width cells') - 1 do
               match (cell cells i, cell cells' i) with
               | None, None -> ()
               | Some a, Some b when same_csn a.Column.meta b.Column.meta -> ()
               | _ ->
                 aci "row %S column %d cell winner differs under \
                      permutation+duplication" (id row) i
             done)
  end

(* --- per-snapshot hook: (1) convergence, (2) monotonicity ------------- *)

let on_snapshot t ~node ~lsn =
  if t.last_lsn.(node) >= lsn then
    record t ~invariant:Monotonicity ~epoch:lsn ~node
      (Printf.sprintf "snapshot %d after %d" lsn t.last_lsn.(node));
  t.last_lsn.(node) <- lsn;
  let digest = Db.digest (Node.db (Cluster.node t.cluster node)) in
  let existing =
    Option.value ~default:[] (Hashtbl.find_opt t.digest_at lsn)
  in
  (match existing with
  | (other, d) :: _ when d <> digest ->
    record t ~invariant:Convergence ~epoch:lsn ~node
      (Printf.sprintf "snapshot %d digest differs from node %d" lsn other)
  | _ -> ());
  if existing = [] && t.variant <> Params.Async_merge then
    (* First replica to reach this snapshot: every member's epoch batch
       is in the backup store by now (sealing precedes merging). *)
    check_aci t ~epoch:lsn;
  Hashtbl.replace t.digest_at lsn ((node, digest) :: existing)

(* --- per-commit hook: (5) isolation + the durability commit log ------- *)

let on_commit t (txn : Txn.t) =
  match txn.Txn.writeset with
  | None -> ()
  | Some ws ->
    let cen = txn.Txn.cen in
    let rows =
      List.map
        (fun (r : Writeset.record) ->
          (r.Writeset.table, Writeset.key_str r, r.Writeset.op))
        ws.Writeset.records
    in
    t.commits <-
      { c_node = txn.Txn.node; c_cen = cen; c_csn = txn.Txn.csn; c_rows = rows }
      :: t.commits;
    if t.variant <> Params.Async_merge then begin
      let writers =
        match Hashtbl.find_opt t.epoch_writers cen with
        | Some tbl -> tbl
        | None ->
          let tbl = Hashtbl.create 16 in
          Hashtbl.replace t.epoch_writers cen tbl;
          tbl
      in
      List.iter
        (fun (table, key, op) ->
          let id = row_id ~table ~key in
          match Hashtbl.find_opt writers id with
          | Some (csn, prev_op) when not (Csn.equal csn txn.Txn.csn) ->
            (* Column-level merge resolves update/update races per cell:
               any number of committed updaters per row is legal there.
               Everything else — two inserts, two deletes, and every
               mixed pair — still admits exactly one winner. *)
            if
              not
                (t.level = Params.Column
                && op = Writeset.Update
                && prev_op = Writeset.Update)
            then
              record t ~invariant:Isolation ~epoch:cen ~node:txn.Txn.node
                (Printf.sprintf
                   "two committed writers of row %S in epoch %d" id cen)
          | _ -> Hashtbl.replace writers id (txn.Txn.csn, op))
        rows
    end

let create cluster =
  let t =
    {
      cluster;
      variant = (Cluster.params cluster).Params.variant;
      level = Params.effective_merge_level (Cluster.params cluster);
      violations = [];
      digest_at = Hashtbl.create 512;
      last_lsn = Array.make (Cluster.n_nodes cluster) (-1);
      commits = [];
      epoch_writers = Hashtbl.create 512;
      replay_rng = Rng.create ((Cluster.params cluster).Params.seed lxor 0xACEACE);
    }
  in
  Cluster.on_snapshot cluster (fun ~node ~lsn -> on_snapshot t ~node ~lsn);
  Cluster.on_commit cluster (fun txn -> on_commit t txn);
  t

(* --- end-of-run checks: (3) durability + final convergence ------------ *)

let live_members t =
  let net = Cluster.net t.cluster in
  List.filter
    (fun m -> not (Gg_sim.Net.is_down net m))
    (Cluster.members t.cluster)

let finalize t ~min_lsn =
  let live = live_members t in
  (match live with
  | [] -> record t ~invariant:Convergence ~epoch:(-1) ~node:(-1) "no live members"
  | _ ->
    let lsn_of m = Node.lsn (Cluster.node t.cluster m) in
    let lo = List.fold_left (fun acc m -> min acc (lsn_of m)) max_int live in
    if lo < min_lsn then
      record t ~invariant:Convergence ~epoch:lo ~node:(-1)
        (Printf.sprintf "stalled: live snapshot floor %d < expected %d" lo
           min_lsn);
    (* Replicas holding the same snapshot must be byte-identical,
       checked directly on the final states (the per-epoch digests
       already compared every snapshot both replicas generated). *)
    List.iter
      (fun m ->
        List.iter
          (fun m' ->
            if m < m' && lsn_of m = lsn_of m' then
              let d = Db.digest (Node.db (Cluster.node t.cluster m)) in
              let d' = Db.digest (Node.db (Cluster.node t.cluster m')) in
              if d <> d' then
                record t ~invariant:Convergence ~epoch:(lsn_of m) ~node:m'
                  (Printf.sprintf "final digest differs from node %d" m))
          live)
      live;
    (* Durability: every commit reported to a client must survive in the
       most advanced live replica, and its write set must be recoverable
       from the origin's backup server (§5.2). Commits from epochs the
       reference has not merged yet (in-flight past the quiesce target)
       are out of scope. *)
    if t.variant <> Params.Async_merge then begin
      let refm =
        List.fold_left
          (fun best m -> if lsn_of m > lsn_of best then m else best)
          (List.hd live) live
      in
      let ref_lsn = lsn_of refm in
      let ref_db = Node.db (Cluster.node t.cluster refm) in
      let backup = Cluster.backup t.cluster in
      List.iter
        (fun c ->
          if c.c_cen <= ref_lsn then begin
            (match Backup.get backup ~node:c.c_node ~cen:c.c_cen with
            | None ->
              record t ~invariant:Durability ~epoch:c.c_cen ~node:c.c_node
                "committed epoch batch missing from backup"
            | Some b ->
              if
                not
                  (List.exists
                     (fun (ws : Writeset.t) ->
                       Csn.equal ws.Writeset.meta.Meta.csn c.c_csn)
                     b.Writeset.Batch.txns)
              then
                record t ~invariant:Durability ~epoch:c.c_cen ~node:c.c_node
                  "committed write set missing from backup batch");
            List.iter
              (fun (table, key, op) ->
                if op <> Writeset.Delete then
                  let row =
                    match Db.get_table ref_db table with
                    | None -> None
                    | Some tbl -> Table.find tbl key
                  in
                  match row with
                  | None ->
                    record t ~invariant:Durability ~epoch:c.c_cen
                      ~node:c.c_node
                      (Printf.sprintf "committed row %S absent" key)
                  | Some entry ->
                    let h = entry.Table.header in
                    if h.Row_header.deleted && h.Row_header.cen <= c.c_cen
                    then
                      record t ~invariant:Durability ~epoch:c.c_cen
                        ~node:c.c_node
                        (Printf.sprintf "committed row %S tombstoned" key)
                    else if
                      (* Column-level merge: several updates commit into
                         one row per epoch but only the claim winner's
                         csn stamps the header, so a committed update is
                         lost only if the row's header never reached its
                         epoch at all. Inserts still own their header. *)
                      h.Row_header.cen < c.c_cen
                      || (h.Row_header.cen = c.c_cen
                         && not (Csn.equal h.Row_header.csn c.c_csn)
                         && not
                              (t.level = Params.Column
                              && op = Writeset.Update))
                    then
                      record t ~invariant:Durability ~epoch:c.c_cen
                        ~node:c.c_node
                        (Printf.sprintf
                           "committed write to %S lost (header cen %d)" key
                           h.Row_header.cen))
              c.c_rows
          end)
        t.commits
    end);
  first t

let n_commits t = List.length t.commits
