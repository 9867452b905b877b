#!/usr/bin/env bash
# Build the benchmark in the release profile from the checkout it sits in,
# then run it with the given arguments, e.g.
#   bash benchmark/run.sh --workload steady_m16 --seed 1 --seconds 12 --trace 0
# Build output goes to stderr, so the last line of stdout stays the
# benchmark's JSON result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [ ! -f "$root/dune-project" ] || [ ! -d "$root/lib" ]; then
  echo "benchmark/run.sh: $root is not a lesslog checkout (no dune-project or lib/)" >&2
  exit 2
fi
cd "$root"
dune build --root . --profile release ./benchmark/lesslog_bench.exe 1>&2
exec ./_build/default/benchmark/lesslog_bench.exe "$@"
