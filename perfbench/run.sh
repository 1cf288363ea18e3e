#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of the checkout. Build output goes to stderr, so the
# benchmark's result stays the last line of standard output.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/mmbench.exe 1>&2
exec ./_build/default/perfbench/mmbench.exe "$@"
