#!/usr/bin/env bash
# Build skope and the benchmark from source, then run the benchmark with
# the given arguments.  Run from the repository root:
#
#   bash bench/serve/run.sh --workload hot-hits --seed 1 --seconds 28 --trace 0
#
# Build output goes to stderr, so the benchmark's last stdout line stays
# its JSON result.
set -euo pipefail
dune build --root . ./bin/skope.exe ./bench/serve/skope_bench.exe 1>&2
exec ./_build/default/bench/serve/skope_bench.exe \
  --skope ./_build/default/bin/skope.exe "$@"
