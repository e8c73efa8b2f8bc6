#!/usr/bin/env bash
# Build the program and the benchmark from source, then run one workload:
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
# Run from the root of a checkout.  Build output goes to stderr; the last
# line of stdout is the result object.
set -euo pipefail
dune build --root . ./perfbench/pbench.exe ./bin/probdbd.exe 1>&2
# serve-hot runs its client and probdbd on one CPU, the first this process
# may use, so that a request and its reply wake their peer on the same CPU
# (see README.md).
pin=()
case " $* " in
  *" --workload serve-hot "*)
    cpu=$(sed -n 's/^Cpus_allowed_list:[[:space:]]*\([0-9]*\).*/\1/p' /proc/self/status)
    pin=(taskset -c "$cpu") ;;
esac
exec "${pin[@]}" ./_build/default/perfbench/pbench.exe run "$@"
