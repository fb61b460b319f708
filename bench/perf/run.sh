#!/bin/sh
# Build the benchmark and the CLI it drives from source, then run it:
#   sh bench/perf/run.sh run --workload wild --seed 1 --seconds 12
# Must be started from the repository root.
#
# A harness reading BENCHMARK.json passes `--trace 0` or `--trace 1`;
# they become no option and `--trace _build/perf/traces`, perf's one
# tracing option.
set -e
if [ ! -f dune-project ] || [ ! -d lib/deobf ] || [ ! -d bin ]; then
  echo "perf: run from the root of a repository checkout" >&2
  exit 2
fi
n=$#
while [ "$n" -gt 0 ]; do
  a=$1
  shift
  n=$((n - 1))
  if [ "$a" = --trace ] && [ "$n" -gt 0 ]; then
    v=$1
    shift
    n=$((n - 1))
    case $v in
      0) ;;
      1) set -- "$@" --trace _build/perf/traces ;;
      *) set -- "$@" --trace "$v" ;;
    esac
  else
    set -- "$@" "$a"
  fi
done
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)" || true
# the build stays inside the checkout: no shared dune cache
DUNE_CACHE=disabled dune build --root . --display quiet \
  ./bench/perf/perf.exe ./bin/invoke_deobfuscation.exe 1>&2
# Every process of the run shares one CPU, the last this one may use, so
# that the calibration kernel (calib.ml) runs where the measured work does.
pin=
if command -v taskset >/dev/null 2>&1; then
  cpu=$(sed -n 's/^Cpus_allowed_list:[[:space:]]*//p' /proc/self/status | sed 's/.*[,-]//')
  if [ -n "$cpu" ]; then pin="taskset -c $cpu"; fi
fi
exec $pin ./_build/default/bench/perf/perf.exe "$@"
