module Params = Geogauss.Params

type impl =
  | Core of (Params.t -> Params.t)
  | Baseline of (module Engine.S)

(* THE canonical engine list. Every name the CLI, the harness, and the
   check sweeps accept lives here and nowhere else — exactly like the
   experiments registry in Gg_harness.Experiments — so adding an engine
   is one line and a stale name fails loudly instead of silently running
   the wrong protocol. Order is documentation only (core variants first,
   then the baseline timing models); lookups go through {!find}. *)
let entries : (string * impl) list =
  [
    ("geogauss", Core (fun p -> Params.with_variant p Params.Optimistic));
    ("geog-s", Core (fun p -> Params.with_variant p Params.Sync_exec));
    ("geog-a", Core (fun p -> Params.with_variant p Params.Async_merge));
    ("eocc", Core (fun p -> Params.with_fastpath p true));
    ("crdb", Baseline (module Crdb));
    ("calvin", Baseline (module Calvin));
    ("aria", Baseline (module Aria));
    ("calvinfs", Baseline (module Calvinfs));
    ("qstore", Baseline (module Qstore));
    ("slog", Baseline (module Slog));
    ("anna", Baseline (module Anna));
  ]

let names = List.map fst entries

let find name =
  match List.assoc_opt name entries with
  | Some impl -> impl
  | None ->
    invalid_arg
      (Printf.sprintf "unknown engine %S (known: %s)" name
         (String.concat " " names))
