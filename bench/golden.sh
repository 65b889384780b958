#!/bin/sh
# Digests of the repo's seeded, deterministic outputs.
#
#   bench/golden.sh write|check [FLAGS...]    (or: make golden / make ci)
#
# Runs every pinned output below from the working tree's build and
# prints one `<sha256>  <name>` line per output. `write` stores the lines
# in GOLDEN.sha256 at the repo root; `check` compares them with the
# committed file, names each output whose digest changed (or that is new
# or gone) and exits non-zero if any did. Each FLAGS argument is one
# pinned check mode as `make ci` spells it, "SEEDS|FLAGS": the seed count
# is ignored, every mode runs the 25-seed fast sweep. With GOLDEN_KEEP=DIR
# set, the raw outputs are kept in DIR, one file per name, so a changed
# entry can be diffed line by line. JOBS sets the check sweeps' domain
# fan-out (output is byte-identical at any value).
#
# The outputs:
#   - `check --seeds 25 --fast`, plain and in each pinned mode;
#   - `check --canary`;
#   - every `bench/main.exe` experiment suite, each run from a temp
#     directory: `table3` in full mode and the rest at `--fast` (stdout;
#     `fig_fastpath` and `fig_skew` also write the
#     BENCH_<suite>.json that is pinned with them);
#   - the seed-7 traced runs: eocc and the classic engine on six nodes
#     (stdout minus the "trace written to" line, then the trace file);
#   - the failover example;
#   - the SQL shell's stdout over the scripted sessions
#     test/golden/sql_session.sql and test/golden/sql_overlay_session.sql
#     (client-visible query results; the second reads through each
#     access path, joins, grouping and projections of every width after
#     the same transaction's own inserts, updates and deletes);
#   - per BENCHMARK.json workload, `bench/e2e/e2e.exe` at seed 42 with
#     three reps: the five simulated end-to-end metrics and the
#     attempted (commit + abort) count.
set -eu

if [ $# -lt 1 ]; then
  echo "usage: $0 write|check [SEEDS|FLAGS ...]" >&2
  exit 2
fi
mode=$1
shift
case $mode in write | check) ;; *)
  echo "usage: $0 write|check [SEEDS|FLAGS ...]" >&2
  exit 2
  ;;
esac
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
dune build 2>&1
bin=$root/_build/default
cli=$bin/bin/geogauss_cli.exe
jobs=${JOBS:-0}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM
out=${GOLDEN_KEEP:-$tmp/out}
mkdir -p "$out"
lines=$tmp/lines

# digest NAME FILE: one GOLDEN line for FILE's content.
digest() {
  printf '%s  %s\n' "$(sha256sum <"$2" | cut -d' ' -f1)" "$1" >>"$lines"
}
# keep NAME: where NAME's raw output goes.
keep() { echo "$out/$(echo "$1" | tr ' /|:' '____')"; }

run_check() {
  name="check${1:+ $1}"
  f=$(keep "$name")
  # shellcheck disable=SC2086 # the flags are word-split on purpose
  "$cli" check --seeds 25 --fast $1 --jobs "$jobs" >"$f" ||
    { tail -3 "$f"; echo "golden: $name failed" >&2; exit 1; }
  digest "$name" "$f"
}
run_check ""
for sweep in "$@"; do run_check "${sweep#*|}"; done
f=$(keep "check --canary")
"$cli" check --canary >"$f"
digest "check --canary" "$f"

for fig in "fig5 --fast" table3 "table2 --fast" "fig6 --fast" "fig7 --fast" \
  "fig8 --fast" "fig9 --fast" "fig10 --fast" "fig11 --fast" "fig12 --fast" \
  "fig13 --fast" "ablations --fast" "fig_fastpath --fast" "fig_skew --fast"; do
  d=$tmp/fig
  rm -rf "$d" && mkdir "$d"
  f=$(keep "$fig")
  # shellcheck disable=SC2086
  (cd "$d" && "$bin/bench/main.exe" $fig --jobs "$jobs") >"$f"
  digest "$fig" "$f"
  # The fig_* suites also write BENCH_<suite>.json into the cwd.
  case $fig in fig_*)
    json=BENCH_$(echo "${fig%% *}" | cut -c5-).json
    f=$(keep "$json")
    cp "$d/$json" "$f"
    digest "$fig $json" "$f"
    ;;
  esac
done

for traced in "--engine eocc --clock-skew 10" "-n 6"; do
  name="trace seed 7 $traced"
  f=$(keep "$name")
  # shellcheck disable=SC2086
  "$cli" run -w ycsb-mc -t 2 --seed 7 $traced --trace "$tmp/trace.jsonl" |
    grep -v '^trace written to' >"$f"
  cat "$tmp/trace.jsonl" >>"$f"
  digest "$name" "$f"
done

f=$(keep failover)
"$bin/examples/failover.exe" >"$f"
digest failover "$f"

for session in test/golden/sql_session.sql test/golden/sql_overlay_session.sql; do
  f=$(keep "sql_shell $session")
  "$bin/bin/sql_shell.exe" <"$session" >"$f"
  digest "sql_shell $session" "$f"
done

# The workloads and the e2e result line are read with sed, as bench/ab.sh
# does, so the script needs no JSON tool.
for w in $(sed -n 's/.*{"name": *"\([^"]*\)", *"why".*/\1/p' BENCHMARK.json); do
  f=$(keep "e2e $w seed 42")
  line=$("$bin/bench/e2e/e2e.exe" --workload "$w" --seed 42 --seconds 0 \
    --trace 0 2>/dev/null | tail -1)
  for k in attempted sim_tput_txn_s sim_p50_ms sim_p99_ms commit_ratio \
    wan_kb_per_txn; do
    echo "$line" | sed -n "s/.*\"$k\":\({\"value\":\)\{0,1\}\([^,}]*\).*/$k \2/p"
  done >"$f"
  digest "e2e $w seed 42" "$f"
done

if [ "$mode" = write ]; then
  cp "$lines" GOLDEN.sha256
  echo "golden: wrote $(wc -l <GOLDEN.sha256) digests to GOLDEN.sha256"
  exit 0
fi
# check: name every entry that differs, in either direction.
status=0
while IFS= read -r line; do
  name=${line#*  }
  if ! grep -qxF "$line" GOLDEN.sha256; then
    if cut -c67- GOLDEN.sha256 | grep -qxF "$name"; then
      echo "golden: changed: $name"
    else
      echo "golden: new (not in GOLDEN.sha256): $name"
    fi
    status=1
  fi
done <"$lines"
while IFS= read -r line; do
  name=${line#*  }
  if ! cut -c67- "$lines" | grep -qxF "$name"; then
    echo "golden: gone: $name"
    status=1
  fi
done <GOLDEN.sha256
[ $status -eq 0 ] && echo "golden: all $(wc -l <"$lines") digests match GOLDEN.sha256"
exit $status
