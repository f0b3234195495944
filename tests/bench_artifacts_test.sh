#!/bin/sh
# Artifact test for the suite benches: each one writes its BENCH_*.json
# directly under --quick, and tools/bench_to_json.py --validate must accept
# those files and the checked-in BENCH_*.json of the working directory (the
# source root). A bench that cannot build its artifact exits non-zero.
#
# Usage: bench_artifacts_test.sh <python3> <bench-binary-dir>
set -eu

PYTHON="${1:?usage: bench_artifacts_test.sh <python3> <bench-binary-dir>}"
BENCH="${2:?usage: bench_artifacts_test.sh <python3> <bench-binary-dir>}"
OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT

for pair in speedup_builders:parallel forest_speedup:forest \
            binned_vs_sorted:binned infer_throughput:infer \
            serve_scaling:serve stream_throughput:stream; do
  echo "== ${pair%%:*} --quick =="
  "$BENCH/${pair%%:*}" --quick --out "$OUT/BENCH_${pair#*:}.json"
done

echo "== validate =="
"$PYTHON" tools/bench_to_json.py --validate "$OUT"/BENCH_*.json BENCH_*.json
echo "bench_artifacts: PASS"
