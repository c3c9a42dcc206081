#!/usr/bin/env bash
# Build the serving benchmark from source, then run it.
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh --self-test
#
# Run from the root of a source tree. Build output stays in the tree's
# _build directory (dune's shared cache is switched off), run outputs in
# .perfbench/. The last line of standard output is the result object.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of a hardq source tree" >&2
  exit 2
fi

export DUNE_CACHE=disabled
if ! dune build --root . --display quiet ./perfbench/perfbench.exe >&2; then
  echo "perfbench: build failed" >&2
  exit 2
fi
exec ./_build/default/perfbench/perfbench.exe "$@"
