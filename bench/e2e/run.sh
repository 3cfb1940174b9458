#!/usr/bin/env bash
# Build drfbench from source and run it; every argument is passed on.
#
#   bash bench/e2e/run.sh --workload corpus-auto --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr, so the last line of stdout is the
# benchmark's JSON result.  A failed build exits non-zero with no result.
set -eu
cd "$(dirname "$0")/../.."
dune build --root . --display quiet ./bench/e2e/main.exe >&2
exec ./_build/default/bench/e2e/main.exe "$@"
