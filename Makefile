.PHONY: all build test fmt ci bench micro ab wallclock parallel check trace-demo clean

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
# Pinned-mode sweeps, one "seeds|flags" pair each: partial replication
# per partition map (DESIGN.md §12), corrupted frames through the
# decode-failure -> stall-repair path, the column-level lattice (§13),
# and the clock-assisted fast path with skew bursts (§14; externalization
# still gates on the confirm point). Every mode runs the same drawn seeds
# through all five oracles; a sweep with violations fails ci.
	for sweep in "5|--partitioning hash:2" "5|--partitioning region" \
		"3|--corrupt 0.05" "5|--merge-level column" \
		"5|--engine eocc --clock-skew 10"; do \
		dune exec bin/geogauss_cli.exe -- check --seeds $${sweep%%|*} --fast $${sweep#*|} --jobs $(JOBS) > /tmp/gg_ci_sweep.out \
			|| { cat /tmp/gg_ci_sweep.out; echo "ci: check $${sweep#*|} failed"; exit 1; }; \
		tail -1 /tmp/gg_ci_sweep.out; \
	done
	dune exec bin/geogauss_cli.exe -- check --canary
# Perf-regression accounting: fresh fast wallclock run vs the committed
# baseline. Fast mode uses shrunk populations, so rates differ
# legitimately; the wide threshold + warn-only keeps this a tripwire for
# order-of-magnitude regressions (and the absolute 5% tracing-overhead
# gate), not a flaky blocker.
	dune exec bench/main.exe -- wallclock --fast --out /tmp/gg_wc_fast.json --jobs $(JOBS)
	dune exec bin/geogauss_cli.exe -- bench diff BENCH_wallclock.json /tmp/gg_wc_fast.json --warn-only --threshold 0.5
# Same tripwire for the partial-replication sweep: fresh fast fig_scale
# vs the committed 25-200 replica baseline (fast mode only runs the
# 25/50 widths; the 100/200 rows report as missing, which warn-only
# tolerates). The fresh JSON lands in cwd, so park the baseline first.
	cp BENCH_scale.json /tmp/gg_scale_base.json; \
	dune exec bench/main.exe -- fig_scale --fast --jobs $(JOBS) > /dev/null; \
	mv BENCH_scale.json /tmp/gg_scale_fast.json; \
	cp /tmp/gg_scale_base.json BENCH_scale.json; \
	dune exec bin/geogauss_cli.exe -- bench diff /tmp/gg_scale_base.json /tmp/gg_scale_fast.json --warn-only --threshold 0.5
# And for the merge-granularity sweep: fresh fast fig_skew vs the
# committed baseline (abort-rate and WAN columns gate lower-is-better).
	cp BENCH_skew.json /tmp/gg_skew_base.json; \
	dune exec bench/main.exe -- fig_skew --fast --jobs $(JOBS) > /dev/null; \
	mv BENCH_skew.json /tmp/gg_skew_fast.json; \
	cp /tmp/gg_skew_base.json BENCH_skew.json; \
	dune exec bin/geogauss_cli.exe -- bench diff /tmp/gg_skew_base.json /tmp/gg_skew_fast.json --warn-only --threshold 0.5
# And for the fast-path sweep: fresh fast fig_fastpath vs the committed
# baseline (p50/p95 and mispredict-rate columns gate lower-is-better;
# fast mode only runs the 0/10/50 ms bounds, the rest report missing,
# which warn-only tolerates).
	cp BENCH_fastpath.json /tmp/gg_fp_base.json; \
	dune exec bench/main.exe -- fig_fastpath --fast --jobs $(JOBS) > /dev/null; \
	mv BENCH_fastpath.json /tmp/gg_fp_fast.json; \
	cp /tmp/gg_fp_base.json BENCH_fastpath.json; \
	dune exec bin/geogauss_cli.exe -- bench diff /tmp/gg_fp_base.json /tmp/gg_fp_fast.json --warn-only --threshold 0.5

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

wallclock:
	dune exec bench/main.exe -- wallclock --jobs $(JOBS)

parallel:
	dune exec bench/main.exe -- parallel

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
