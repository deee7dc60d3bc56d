#!/usr/bin/env bash
# Build the simulator and its benchmark from source with the release
# profile, then run the benchmark.  Run from the repository root:
#
#   bash perfbench/run.sh --workload fork-exec --seed 42 --seconds 30 --trace 0
#
# Build output goes to stderr; the benchmark's last line of stdout is its
# JSON result.  Results and traces are also written under .perfbench/.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of a complete checkout" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi

# keep every build artefact inside the checkout
export DUNE_CACHE=disabled
dune build --root . --profile release ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
