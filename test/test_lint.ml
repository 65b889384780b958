(* Determinism-hazard lint over lib/ sources.

   Everything under lib/ runs inside seeded simulations whose outputs
   must be bit-reproducible (chaos reproducers, figure tables, bench
   counts) — and, since the Domain pool, possibly on several domains at
   once. Two classes of hazard are banned at the source level:

   - ambient nondeterminism: the stdlib [Random] (shared global state;
     use the per-instance [Gg_util.Rng]), wall clocks
     ([Unix.gettimeofday], [Unix.time], [Sys.time] — sim time comes
     from [Gg_sim.Sim]; wall timing belongs to bench/ and bin/), and
     randomized hashing ([Hashtbl.randomize], [~random:true]), which
     would make hash-table iteration orders differ between runs;
   - module-level mutable state ([ref]/[Hashtbl.create]/... at
     structure level): shared across concurrent pool tasks, it breaks
     run-to-run isolation. Per-domain state must go through
     [Gg_par.Pool.Local] ([Writeset.Batch]'s encode counter and
     [Compress]'s reusable match table);
   - raw [Domain.spawn]/[Domain.DLS] (any [Domain.] use) outside
     lib/par: all parallelism must flow through the deterministic pool,
     whose submission-order delivery is what keeps every output
     byte-identical at any width. *)

let src_root () =
  (* dune runs tests from _build/default/test with sources copied in *)
  List.find_opt Sys.file_exists [ "../lib"; "lib"; "../../lib" ]

let rec ml_files dir =
  Array.to_list (Sys.readdir dir)
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if Sys.is_directory path then ml_files path
         else if Filename.check_suffix name ".ml" then [ path ]
         else [])
  |> List.sort compare

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  nn > 0 && at 0

let ambient_banned =
  [ "Random."; "Unix.gettimeofday"; "Unix.time"; "Sys.time";
    "Hashtbl.randomize"; "~random:true" ]

(* A structure-level mutable binding: `let x = ref ...` (any
   indentation — nested modules indent) with no ` in ` on the line.
   Local bindings carry their ` in` on the same line throughout this
   codebase; a fresh violation that wraps can be caught at review, the
   lint is a tripwire, not a proof. *)
let mutable_makers =
  [ "ref "; "Hashtbl.create"; "Buffer.create"; "Queue.create"; "Atomic.make";
    "Array.make" ]

let is_module_level_mutable line =
  let t = String.trim line in
  match String.index_opt t '=' with
  | Some eq when String.length t > 4 && String.sub t 0 4 = "let " ->
    let lhs = String.trim (String.sub t 4 (eq - 4)) in
    let rhs = String.trim (String.sub t (eq + 1) (String.length t - eq - 1)) in
    (* value bindings only: `let x =` or `let x : ty =` — a lhs with
       parameters or patterns defines a function, which allocates fresh
       state per call and is fine *)
    let is_value_binding =
      match String.split_on_char ' ' lhs with
      | [ _name ] -> true
      | _name :: ":" :: _ -> true
      | _ -> false
    in
    is_value_binding
    && List.exists
         (fun m ->
           String.length rhs >= String.length m
           && String.sub rhs 0 (String.length m) = m)
         mutable_makers
    && not (contains (" " ^ t ^ " ") " in ")
  | _ -> false

(* lib/par is the one place allowed to talk to [Domain] directly; its
   path is detected from the source tree layout. *)
let in_par_lib path = contains path "/par/"

let lint_file path =
  let allow_domain = in_par_lib path in
  List.concat
    (List.mapi
       (fun i line ->
         let where what =
           Printf.sprintf "%s:%d: %s: %s" path (i + 1) what (String.trim line)
         in
         let ambient =
           List.filter_map
             (fun b ->
               if contains line b then Some (where ("ambient `" ^ b ^ "`"))
               else None)
             ambient_banned
         in
         let domain =
           if (not allow_domain) && contains line "Domain." then
             [ where "raw `Domain.` outside lib/par" ]
           else []
         in
         let mutable_ =
           if is_module_level_mutable line then
             [ where "module-level mutable state" ]
           else []
         in
         ambient @ domain @ mutable_)
       (read_lines path))

let test_no_hazards () =
  match src_root () with
  | None -> Alcotest.fail "cannot locate lib/ sources from test cwd"
  | Some root ->
    let files = ml_files root in
    Alcotest.(check bool) "found lib sources" true (List.length files > 10);
    let findings = List.concat_map lint_file files in
    if findings <> [] then
      Alcotest.fail
        ("determinism hazards in lib/:\n" ^ String.concat "\n" findings)

let test_dls_is_sanctioned () =
  (* The cross-call state lib/ keeps — the bench encode counter and the
     compressor's match-table scratch — must stay domain-local, and
     reach Domain.DLS only through the pool's one wrapper, Pool.Local
     (the `Domain.` ban above already guarantees the "only through"
     half for all of lib/). *)
  match src_root () with
  | None -> Alcotest.fail "cannot locate lib/ sources from test cwd"
  | Some root ->
    List.iter
      (fun (file, what) ->
        let src = read_lines (Filename.concat root file) in
        Alcotest.(check bool) (what ^ " uses Pool.Local") true
          (List.exists (fun l -> contains l "Gg_par.Pool.Local.create") src))
      [ ("crdt/writeset.ml", "encode counter");
        ("util/compress.ml", "compressor scratch") ];
    let pool = read_lines (Filename.concat root "par/pool.ml") in
    Alcotest.(check bool) "Pool.Local is DLS-backed" true
      (List.exists (fun l -> contains l "Domain.DLS.new_key") pool);
    Alcotest.(check int) "Pool.Local is the one DLS key maker" 1
      (List.length
         (List.filter (fun l -> contains l "Domain.DLS.new_key") pool))

let test_engine_registry_is_canonical () =
  (* Engine names resolve through exactly one table —
     lib/engines/registry.ml — whose lookup fails loudly
     ([invalid_arg]) with the full known list. A second name table
     silently drifting out of sync is the hazard; `"geog-s"` /
     `"geog-a"` string literals only make sense as entries of such a
     table, so their appearance anywhere else in lib/ or bin/ is a
     duplicate (doc strings spell the names unquoted). *)
  match src_root () with
  | None -> Alcotest.fail "cannot locate lib/ sources from test cwd"
  | Some root ->
    let registry = Filename.concat root "engines/registry.ml" in
    let reg = read_lines registry in
    Alcotest.(check bool) "registry declares the entries list" true
      (List.exists (fun l -> contains l "let entries") reg);
    Alcotest.(check bool) "unknown names fail with the known list" true
      (List.exists (fun l -> contains l "invalid_arg") reg);
    let bin_root =
      List.find_opt Sys.file_exists [ "../bin"; "bin"; "../../bin" ]
    in
    let files =
      ml_files root
      @ (match bin_root with Some b -> ml_files b | None -> [])
    in
    Alcotest.(check bool) "found bin sources too" true (bin_root <> None);
    let dupes =
      List.concat_map
        (fun path ->
          if contains path "engines/registry.ml" then []
          else
            List.concat
              (List.mapi
                 (fun i line ->
                   if contains line "\"geog-s\"" || contains line "\"geog-a\""
                   then
                     [ Printf.sprintf "%s:%d: %s" path (i + 1)
                         (String.trim line) ]
                   else [])
                 (read_lines path)))
        files
    in
    if dupes <> [] then
      Alcotest.fail
        ("engine-name tables outside the registry:\n"
        ^ String.concat "\n" dupes)

(* The isolation level has one reader in lib/core: the execution stage
   (lib/core/execution.ml) turns it into the read-set, validation,
   read-key and meta decisions once, at create, so a change to what a
   level means touches one module. A second reader (a node branch on the
   level, say) would split the policy again. [Params] defines the type. *)
let isolation_names =
  [ "Params.isolation"; "Params.RC"; "Params.RR"; "Params.SI"; "Params.SSI" ]

(* Is [line.[i]] an identifier character? (Not past either end.) *)
let ident_at line i =
  i >= 0 && i < String.length line
  && match line.[i] with
     | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
     | _ -> false

(* [w] in [line] at some [i] where [ok i] holds. *)
let occurs line w ok =
  let nl = String.length line and nw = String.length w in
  let rec at i = i + nw <= nl && (String.sub line i nw = w && ok i || at (i + 1)) in
  at 0

(* [name] in [line], not continued by an identifier character (so
   [Params.SI] does not match [Params.SIZE]). *)
let names line name =
  occurs line name (fun i -> not (ident_at line (i + String.length name)))

let test_isolation_has_one_home () =
  match src_root () with
  | None -> Alcotest.fail "cannot locate lib/ sources from test cwd"
  | Some root ->
    let core = Filename.concat root "core" in
    let home name =
      List.mem name
        [ "params.ml"; "params.mli"; "execution.ml"; "execution.mli" ]
    in
    let files =
      Array.to_list (Sys.readdir core)
      |> List.filter (fun n ->
             (Filename.check_suffix n ".ml" || Filename.check_suffix n ".mli")
             && not (home n))
      |> List.sort compare
    in
    Alcotest.(check bool) "found lib/core sources" true
      (List.length files > 10);
    let readers =
      List.concat_map
        (fun name ->
          let path = Filename.concat core name in
          List.concat
            (List.mapi
               (fun i line ->
                 if List.exists (names line) isolation_names then
                   [ Printf.sprintf "%s:%d: %s" path (i + 1) (String.trim line) ]
                 else [])
               (read_lines path)))
        files
    in
    if readers <> [] then
      Alcotest.fail
        ("isolation read outside Params and Execution:\n"
        ^ String.concat "\n" readers)

(* Write-set records are made in one place in lib/: the transaction buffer in
   [Executor.Ctx] (lib/sql/executor.ml) turns buffered writes into
   records for both front ends, SQL statements and key-level ops, so a
   change to how a write becomes a record touches one place.
   lib/crdt/writeset.ml defines [make_record]. *)
let test_writeset_records_made_in_one_place () =
  match src_root () with
  | None -> Alcotest.fail "cannot locate lib/ sources from test cwd"
  | Some root ->
    let callers_in path =
      List.concat
        (List.mapi
           (fun i line ->
             if names line "make_record" then
               [ Printf.sprintf "%s:%d: %s" path (i + 1) (String.trim line) ]
             else [])
           (read_lines path))
    in
    let maker = Filename.concat (Filename.concat root "sql") "executor.ml" in
    let home = Filename.concat (Filename.concat root "crdt") "writeset.ml" in
    Alcotest.(check bool) "Executor.Ctx builds the records" true
      (callers_in maker <> []);
    let callers =
      List.concat_map
        (fun path -> if path = maker || path = home then [] else callers_in path)
        (ml_files root)
    in
    if callers <> [] then
      Alcotest.fail
        ("Writeset.make_record called outside Executor.Ctx:\n"
        ^ String.concat "\n" callers)

(* No stdlib [Queue] in the simulator or the protocol core. Its [take]
   leaves the dequeued cell's [next] link in place, so a queue that
   lives in the major heap (a node's CPU run queue, its GeoG-S holds)
   keeps a chain from its oldest promoted cell to
   every later one: the next minor collection promotes each cell pushed
   since, with the job closure, transaction and request it holds, even
   after it is dequeued. [Gg_util.Fifo] clears the slot it pops. *)
(* Module path [m] (["Queue."]) in [line], not the tail of a longer
   name ([Event_queue.] or [MyQueue.] do not match; [Stdlib.Queue.]
   does). *)
let uses_module line m = occurs line m (fun i -> not (ident_at line (i - 1)))

(* [w] in [line] as a whole name: neither end continues an identifier,
   so [Merge] matches [Gg_crdt.Merge.x] and [module M = Gg_crdt.Merge]
   but not [Merge_model]. *)
let word line w =
  occurs line w (fun i ->
      not (ident_at line (i - 1) || ident_at line (i + String.length w)))

(* The merge's reference model (lib/check/merge_model.ml) has its own
   copy of the rules: it never calls into the kernel it is held against
   ([Epoch_merge]), the header merge that kernel uses ([merge_header], or
   anything else of [Merge]), or the row store ([Table], [Db]), not even
   through a module alias. A model that did would turn the differential
   test into a tautology. *)
let test_merge_model_stands_alone () =
  match src_root () with
  | None -> Alcotest.fail "cannot locate lib/ sources from test cwd"
  | Some root ->
    let path = Filename.concat (Filename.concat root "check") "merge_model.ml" in
    let uses =
      List.concat
        (List.mapi
           (fun i line ->
             if
               List.exists (contains line) [ "Epoch_merge"; "merge_header"; "Table." ]
               || List.exists (word line) [ "Merge"; "Table"; "Db" ]
             then [ Printf.sprintf "%s:%d: %s" path (i + 1) (String.trim line) ]
             else [])
           (read_lines path))
    in
    if uses <> [] then
      Alcotest.fail
        ("the merge model calls into the kernel or the row store:\n"
        ^ String.concat "\n" uses)

let test_no_stdlib_queue () =
  match src_root () with
  | None -> Alcotest.fail "cannot locate lib/ sources from test cwd"
  | Some root ->
    let files =
      ml_files (Filename.concat root "sim") @ ml_files (Filename.concat root "core")
    in
    Alcotest.(check bool) "found lib/sim and lib/core sources" true
      (List.length files > 10);
    let uses =
      List.concat_map
        (fun path ->
          List.concat
            (List.mapi
               (fun i line ->
                 if uses_module line "Queue." then
                   [ Printf.sprintf "%s:%d: %s" path (i + 1) (String.trim line) ]
                 else [])
               (read_lines path)))
        files
    in
    if uses <> [] then
      Alcotest.fail
        ("stdlib Queue in lib/sim or lib/core (use Gg_util.Fifo):\n"
        ^ String.concat "\n" uses)

(* Every committed BENCH_<suite>.json at the repo root is named by a
   writer: the bench runner (bench/main.ml) or the fig suites
   (lib/harness/experiments.ml). A suite cannot then be deleted while
   its artifact stays behind as a figure nothing regenerates. *)
let test_no_orphan_bench_artifact () =
  match
    List.find_opt
      (fun d -> Sys.file_exists (Filename.concat d "bench/main.ml"))
      [ ".."; "."; "../.." ]
  with
  | None -> Alcotest.fail "cannot locate bench/main.ml from test cwd"
  | Some root ->
    let artifacts =
      Array.to_list (Sys.readdir root)
      |> List.filter (fun n ->
             String.length n > 6
             && String.sub n 0 6 = "BENCH_"
             && Filename.check_suffix n ".json")
      |> List.sort compare
    in
    Alcotest.(check bool) "found committed BENCH_*.json" true
      (artifacts <> []);
    let writers =
      List.concat_map
        (fun f -> read_lines (Filename.concat root f))
        [ "bench/main.ml"; "lib/harness/experiments.ml" ]
    in
    let orphans =
      List.filter
        (fun n ->
          not (List.exists (fun l -> contains l ("\"" ^ n ^ "\"")) writers))
        artifacts
    in
    if orphans <> [] then
      Alcotest.fail
        ("BENCH artifacts no writer names:\n" ^ String.concat "\n" orphans)

let () =
  Alcotest.run "lint"
    [
      ( "determinism",
        [
          Alcotest.test_case "no ambient nondeterminism or module globals"
            `Quick test_no_hazards;
          Alcotest.test_case "encode counter is domain-local" `Quick
            test_dls_is_sanctioned;
          Alcotest.test_case "engine registry is the one name table" `Quick
            test_engine_registry_is_canonical;
        ] );
      ( "policy",
        [
          Alcotest.test_case "isolation has one home in lib/core" `Quick
            test_isolation_has_one_home;
          Alcotest.test_case "write-set records made in one place in lib" `Quick
            test_writeset_records_made_in_one_place;
          Alcotest.test_case "no stdlib Queue in lib/sim or lib/core" `Quick
            test_no_stdlib_queue;
          Alcotest.test_case "merge model stands alone" `Quick
            test_merge_model_stands_alone;
          Alcotest.test_case "every BENCH artifact has a writer" `Quick
            test_no_orphan_bench_artifact;
        ] );
    ]
