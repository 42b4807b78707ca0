#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run it:
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
# Must be started from the repository root.  Build output goes to
# dune's _build/ inside the checkout; the shared dune cache is off so
# nothing is written outside it.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . ./perfbench/bin/main.exe 1>&2
exec ./_build/default/perfbench/bin/main.exe "$@"
