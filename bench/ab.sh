#!/bin/sh
# A/B comparison on the end-to-end benchmark.
#
#   bench/ab.sh WORKLOAD SEED BASE PAIRS      (or: make ab W=.. SEED=.. BASE=.. PAIRS=..)
#
# Builds the revision BASE in a temporary git worktree and the working
# tree as it stands (uncommitted edits included), then runs PAIRS
# alternating pairs of the BENCHMARK.json command on one workload
# (`--workload WORKLOAD --seed SEED --seconds <run_seconds> --trace 0`).
# Odd pairs run BASE first and even pairs run the working tree first, so
# a slow drift of the host falls on both sides alike. For every
# end-to-end metric in BENCHMARK.json it prints each side's q1, median
# and q3 (the exclusive method, as bench/e2e reports them) and in how
# many pairs the working tree was better, the same, or worse, then one
# line saying whether the five simulated metrics were identical in every
# pair. With AB_OUT=DIR set, each run's JSON line is kept in
# DIR/base.jsonl and DIR/change.jsonl. Exits
# non-zero if any run reports `correct` false or a failed operation.
set -eu

if [ $# -ne 4 ]; then
  echo "usage: $0 WORKLOAD SEED BASE PAIRS" >&2
  exit 2
fi
workload=$1 seed=$2 base=$3 pairs=$4
root=$(git rev-parse --show-toplevel)
cd "$root"
rev=$(git rev-parse --verify "$base^{commit}")

tmp=$(mktemp -d)
worktree="$tmp/base"
out=${AB_OUT:-$tmp}
mkdir -p "$out"
cleanup() {
  git worktree remove --force "$worktree" >/dev/null 2>&1 || true
  rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

# The benchmark command and run length, as BENCHMARK.json declares them.
command=$(sed -n 's/.*"command": *\[\(.*\)\].*/\1/p' BENCHMARK.json | tr -d '",')
seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)
# "name better" per end-to-end metric (the entries that carry a bound).
metrics=$(grep '"bound"' BENCHMARK.json |
  sed -n 's/.*"name": *"\([^"]*\)".*"better": *"\([a-z]*\)".*/\1 \2/p')

git worktree add --detach "$worktree" "$rev" >/dev/null
echo "ab: base $base ($rev) vs working tree; $workload, seed $seed, $pairs pairs of ${seconds} s"
(cd "$worktree" && dune build --root . 2>&1) | tail -5
dune build --root . 2>&1 | tail -5

: >"$out/base.jsonl"
: >"$out/change.jsonl"
run() { # run SIDE DIR
  line=$(cd "$2" && $command --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 0 2>/dev/null | tail -1)
  echo "$line" >>"$out/$1.jsonl"
  value=$(echo "$line" | sed -n 's/.*"host_s_per_sim_s":{"value":\([^,}]*\).*/\1/p')
  printf '  %-6s host_s_per_sim_s %s\n' "$1" "$value"
}
i=1
while [ "$i" -le "$pairs" ]; do
  echo "pair $i/$pairs"
  if [ $((i % 2)) -eq 1 ]; then
    run base "$worktree"
    run change "$root"
  else
    run change "$root"
    run base "$worktree"
  fi
  i=$((i + 1))
done

values() { # values SIDE METRIC: one value per run, in run order
  sed -n "s/.*\"$2\":{\"value\":\([^,}]*\).*/\1/p" "$out/$1.jsonl"
}
quartiles() { # stdin: values -> "q1 / median / q3"
  sort -g | awk '
    { a[NR] = $1 }
    function q(p,   pos, j) {
      if (NR < 2) return a[1]
      pos = p * (NR + 1); j = int(pos)
      if (j < 1) j = 1
      if (j > NR - 1) j = NR - 1
      return a[j] + (a[j + 1] - a[j]) * (pos - j)
    }
    END { printf "%.6g / %.6g / %.6g", q(0.25), q(0.5), q(0.75) }'
}

echo
printf '%-17s %-6s %-36s %-36s %s\n' metric better "base q1 / median / q3" \
  "change q1 / median / q3" "change better/same/worse"
echo "$metrics" | while read -r name better; do
  values base "$name" >"$tmp/b"
  values change "$name" >"$tmp/c"
  tally=$(paste "$tmp/b" "$tmp/c" | awk -v better="$better" '
    $2 == $1 { same++; next }
    (better == "lower") == ($2 < $1) { win++; next }
    { lose++ }
    END { printf "%d/%d/%d", win, same, lose }')
  printf '%-17s %-6s %-36s %-36s %s\n' "$name" "$better" \
    "$(quartiles <"$tmp/b")" "$(quartiles <"$tmp/c")" "$tally"
done

# A host-time change must leave the simulation alone: say whether the
# five simulated metrics printed the same digits on both sides of every pair.
sim="sim_tput_txn_s sim_p50_ms sim_p99_ms commit_ratio wan_kb_per_txn"
differ=
for name in $sim; do
  values base "$name" >"$tmp/b"
  values change "$name" >"$tmp/c"
  cmp -s "$tmp/b" "$tmp/c" || differ="$differ $name"
done
if [ -z "$differ" ]; then
  echo "simulation: identical in all $pairs pairs ($sim)"
else
  echo "simulation: DIFFERS in$differ"
fi

bad=$(cat "$out/base.jsonl" "$out/change.jsonl" |
  grep -cv '"correct":true,.*"failed":0,' || true)
if [ "$bad" -ne 0 ]; then
  echo "ab: $bad run(s) not correct or with failed operations (see $out)" >&2
  exit 1
fi
