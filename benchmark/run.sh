#!/usr/bin/env bash
# Run every workload of the repo benchmark, untraced then traced, once per
# seed, saving each run's stdout as one file (a run of the same name is
# replaced), then compare against a baseline set if one is given.
#
#   benchmark/run.sh [-b <baseline-dir>] <out-dir> [seed ...]
#
# Seeds default to 1..5.  Every run lasts run_seconds of BENCHMARK.json, so
# any two sets compare.  Run it from the repo root.  Two sets of the same
# code, compared, is the benchmark's own noise check:
#
#   benchmark/run.sh benchmark/out/a 1 2 3 4 5
#   benchmark/run.sh -b benchmark/out/a benchmark/out/b 6 7 8 9 10
set -euo pipefail

baseline=""
while getopts "b:" opt; do
  case "$opt" in
    b) baseline="$OPTARG" ;;
    *) sed -n '2,13p' "$0"; exit 2 ;;
  esac
done
shift $((OPTIND - 1))
out="${1:?out-dir is required}"
shift
seeds=("$@")
[ ${#seeds[@]} -gt 0 ] || seeds=(1 2 3 4 5)
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/benchmark"
workloads=$(sed -n '/"workloads"/,/\]/s/.*"name": *"\([^"]*\)".*/\1/p' BENCHMARK.json)

mkdir -p "$out"
# Seed by seed, so a workload's traced run follows its untraced one by
# minutes and the host's slow drift stays out of their ratio.
for seed in "${seeds[@]}"; do
  for trace in 0 1; do
    for w in $workloads; do
      echo "run.sh: $w seed $seed trace $trace" >&2
      "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" \
        > "$out/$w-t$trace-s$seed.json"
    done
  done
done

if [ -n "$baseline" ]; then
  "$bin" compare "$baseline" "$out"
else
  echo "run.sh: wrote $out; compare two sets with: $bin compare <A-dir> <B-dir>" >&2
fi
