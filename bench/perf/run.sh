#!/usr/bin/env bash
# Build the CLI and the perf harness from source, then run the harness:
#
#   bash bench/perf/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from anywhere inside a checkout; the build and every file the
# harness writes stay in that checkout (_build/, bench/perf/_run/): dune's
# shared cache is off and the compilers' temporary files go under _run.
# Build output goes to stderr so the harness's JSON stays the last line
# of stdout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
if [ ! -f dune-project ]; then
  echo "run.sh: $root is not a treorder checkout (no dune-project)" >&2
  exit 2
fi
export DUNE_CACHE=disabled
export TMPDIR="$root/bench/perf/_run/tmp"
mkdir -p "$TMPDIR"
dune build --root . bin/treorder_cli.exe bench/perf/perf.exe 1>&2
exec ./_build/default/bench/perf/perf.exe "$@"
