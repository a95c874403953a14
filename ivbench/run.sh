#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run it:
#   bash ivbench/run.sh --workload escrow-hot --seed 1 --seconds 12 --trace 0
# The last line of standard output is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "ivbench: no ivdb source tree here (need dune-project and lib/)" >&2
  exit 2
fi
dune build --root . -j 2 ./ivbench/main.exe 1>&2
exec ./_build/default/ivbench/main.exe "$@"
