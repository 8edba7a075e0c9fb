#!/usr/bin/env bash
# Build the benchmark from this checkout's sources and run it:
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
# Run from the root of the checkout.  Build output goes to .bench_build;
# dune's shared cache is off, so nothing is written outside the checkout.
set -euo pipefail
dune build --root . --build-dir .bench_build --cache=disabled \
  perfbench/main.exe 1>&2
exec .bench_build/default/perfbench/main.exe "$@"
