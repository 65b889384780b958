#!/bin/sh
# A check sweep that finds an invariant violation must exit 1, so a
# script can tell it from a usage error (exit 124). Seed 134 under the
# eocc fast path at 10 ms clock skew is a known convergence violation
# (CHANGES.md); a reproducer that outlives its fix should replace it.
#
#   sh bin/check_failure.sh PATH/TO/geogauss_cli.exe    (dune runtest runs it)
set -u
cli=$1
"$cli" check --seeds 1 --base 134 --fast --engine eocc --clock-skew 10 \
  >/dev/null 2>&1
code=$?
if [ "$code" -ne 1 ]; then
  printf 'geogauss check --seeds 1 --base 134 --fast --engine eocc --clock-skew 10: exit %d, want 1\n' \
    "$code" >&2
  exit 1
fi
