#!/usr/bin/env bash
# Build the benchmark and the rvserved daemon it drives, then run the
# benchmark with the given arguments, from the root of the repository:
#   bash bench/e2e/run.sh --workload rewrite-wide --seed 1 --seconds 28 --trace 0
# The build keeps to this directory: no shared dune cache.
set -euo pipefail
dune build --root . --cache=disabled bench/e2e/rvbench.exe bin/rvserved.exe
exec _build/default/bench/e2e/rvbench.exe "$@"
