.PHONY: all build test fmt ci golden bench micro ab check trace-demo clean

# Domain fan-out for the harness (check sweeps, experiment grids, bench
# scenarios). 0 = one worker per core; output is byte-identical at any
# value. Override per invocation: `make check JOBS=4`.
JOBS ?= 0

all: build

build:
	dune build

test:
	dune runtest

# ocamlformat is not part of the pinned dependency set everywhere this
# repo builds; format only when the tool is actually present.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune fmt; \
	else \
		echo "fmt: ocamlformat not installed, skipping"; \
	fi

# Seeded chaos checking (DESIGN.md §8). `make check` is the standing
# smoke sweep; crank --seeds up for a longer hunt.
check:
	dune exec bin/geogauss_cli.exe -- check --seeds 25 --fast --jobs $(JOBS)
	dune exec bin/geogauss_cli.exe -- check --canary

# Pinned check modes, one "seeds|flags" pair each: corrupted frames
# through the decode-failure -> stall-repair path, the column-level
# lattice (DESIGN.md §13), the clock-assisted fast path with skew bursts
# (§14; externalization still gates on the confirm point), SI, where the
# executors build the read sets that validation checks (RC, the default,
# builds none), Raft-FT, the only mode whose batches wait on the
# origin's majority commit (§5.2), GeoG-A, whose gossip runs no epochs
# at all (§3.1), RR, whose Same_csn check runs the op executor's
# row-probing read path (at RC a point read probes no row), and SSI, the
# only mode whose merge runs the pivot-abort pass.
# `make ci` sweeps each at its seed count; `make golden` pins each at 25
# seeds.
PINNED_SWEEPS = "3|--corrupt 0.05" "5|--merge-level column" \
	"5|--engine eocc --clock-skew 10" "5|--isolation si" "5|--ft raft" \
	"5|--engine geog-a" "5|--isolation rr" "5|--isolation ssi"

ci: fmt
	dune build
	dune runtest
	@t1=$$(date +%s.%N); \
	dune exec bin/geogauss_cli.exe -- check --seeds 5 --fast --jobs 1 > /tmp/gg_ci_j1.out; \
	t2=$$(date +%s.%N); \
	dune exec bin/geogauss_cli.exe -- check --seeds 5 --fast --jobs $(JOBS) > /tmp/gg_ci_jn.out; \
	t3=$$(date +%s.%N); \
	cmp /tmp/gg_ci_j1.out /tmp/gg_ci_jn.out || { echo "ci: -j1 vs -j$(JOBS) output differs"; exit 1; }; \
	cat /tmp/gg_ci_jn.out; \
	cores=$$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1); \
	if [ "$$cores" -gt 1 ]; then \
		awk -v a="$$t1" -v b="$$t2" -v c="$$t3" \
			'BEGIN { printf "ci: check sweep %.2fs at -j1, %.2fs at JOBS=$(JOBS) (%.2fx)\n", b-a, c-b, (b-a)/(c-b) }'; \
	else \
		echo "ci: single-core host, speedup not meaningful (outputs compared equal)"; \
	fi
# Pinned-mode sweeps (PINNED_SWEEPS): every mode runs the same drawn
# seeds through all five oracles; a sweep with violations fails ci.
	for sweep in $(PINNED_SWEEPS); do \
		dune exec bin/geogauss_cli.exe -- check --seeds $${sweep%%|*} --fast $${sweep#*|} --jobs $(JOBS) > /tmp/gg_ci_sweep.out \
			|| { cat /tmp/gg_ci_sweep.out; echo "ci: check $${sweep#*|} failed"; exit 1; }; \
		tail -1 /tmp/gg_ci_sweep.out; \
	done
	dune exec bin/geogauss_cli.exe -- check --canary
# Seeded outputs against GOLDEN.sha256 (bench/golden.sh): names every
# output whose digest moved. A change that moves outputs on purpose
# regenerates the file with `make golden`. Every number an experiment
# suite reports is simulated, so each suite's stdout (and the
# BENCH_*.json of fig_skew and fig_fastpath) is pinned here
# exactly; the committed full-mode BENCH_*.json files are figures, not
# gates.
	@t0=$$(date +%s.%N); \
	JOBS=$(JOBS) sh bench/golden.sh check $(PINNED_SWEEPS) || exit 1; \
	awk -v a="$$t0" -v b="$$(date +%s.%N)" 'BEGIN { printf "ci: golden step %.1fs\n", b-a }'

# Regenerate GOLDEN.sha256, the digests `make ci` checks the seeded
# outputs against (bench/golden.sh lists them).
golden:
	JOBS=$(JOBS) sh bench/golden.sh write $(PINNED_SWEEPS)

bench:
	dune exec bench/main.exe -- --jobs $(JOBS)

# Bechamel kernels (OLS ns/run and r-squared each) into BENCH_micro.json.
micro:
	dune exec bench/main.exe -- micro

# A/B on the end-to-end benchmark (bench/ab.sh): PAIRS alternating
# pairs of the BENCHMARK.json command on workload W, revision BASE
# (built in a temporary git worktree) against the working tree, e.g.
# `make ab W=ycsb-ro BASE=HEAD~1`.
SEED ?= 42
BASE ?= HEAD
PAIRS ?= 10
ab:
	@test -n "$(W)" || { echo "make ab: set W=<workload>" >&2; exit 2; }
	sh bench/ab.sh $(W) $(SEED) $(BASE) $(PAIRS)

# End-to-end tracing walkthrough: a seeded fig5-style run with tracing
# on, then the causal critical-path attribution and per-region-pair WAN
# report over the written trace. All three outputs are deterministic
# functions of the seed.
trace-demo:
	dune exec bin/geogauss_cli.exe -- run -w ycsb-mc -n 3 -t 2 --seed 7 --trace /tmp/gg_demo_trace.jsonl
	dune exec bin/geogauss_cli.exe -- trace critical-path /tmp/gg_demo_trace.jsonl --json /tmp/gg_demo_cp.json
	dune exec bin/geogauss_cli.exe -- trace wan /tmp/gg_demo_trace.jsonl --json /tmp/gg_demo_wan.json

clean:
	dune clean
