#!/usr/bin/env bash
# Build the benchmark from source and run it:
#
#   bash hlobench/run.sh --workload spec-ref --seed 1 --seconds 30 --trace 0
#
# Every argument is passed on to `hlo_bench run`.  Run from the root of
# the repository; dune's build directory stays inside it.
set -euo pipefail
cd "$(dirname "$0")/.."
command -v dune >/dev/null || eval "$(opam env 2>/dev/null)"
export DUNE_CACHE=disabled
dune build --root . --display quiet hlobench/hlo_bench.exe 1>&2
exec ./_build/default/hlobench/hlo_bench.exe run "$@"
