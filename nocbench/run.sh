#!/usr/bin/env bash
# Build the daemon and the benchmark from source, then run one workload:
#
#   bash nocbench/run.sh --workload cold-mix --seed 1 --seconds 10 --trace 0
#
# Run from the root of a checkout.  Build output goes to stderr so the
# last line of stdout is the benchmark's JSON result.
set -euo pipefail

export DUNE_CACHE=disabled
dune build --root . --display quiet \
  ./bin/noc_tool.exe ./nocbench/nocbench.exe 1>&2
# A wedged daemon must not wedge the run: timeout signals the whole
# process group, daemon included.
exec timeout -k 5 170 ./_build/default/nocbench/nocbench.exe "$@"
