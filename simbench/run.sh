#!/usr/bin/env bash
# Build the simulator's benchmark from source, then run it:
#
#   bash simbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout.  The build goes to _build/ (dune's
# shared cache is off, so nothing is written outside the checkout);
# build output goes to stderr, so the last line of stdout stays the
# benchmark's JSON result.  Without the simulator's sources the build
# fails and so does this script, printing no result.
set -euo pipefail
export DUNE_CACHE=disabled
if ! dune build --root . ./simbench/main.exe 1>&2; then
  echo "simbench: build failed" >&2
  exit 3
fi
exec ./_build/default/simbench/main.exe "$@"
