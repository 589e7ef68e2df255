#!/bin/sh
# Byte-for-byte goldens of the paper benches and the solar-day example,
# registered with ctest as `bench_goldens`.
#
#   bench_goldens_test.sh BIN_DIR [OUT_DIR]
#
# Runs each pinned program from BIN_DIR, writes its stdout to
# OUT_DIR/<name>.txt (default: a temporary directory) and `cmp`s it
# against tests/goldens/benches/<name>.txt. Every program is
# deterministic, so any difference is an output change.
#
# Regenerate (from the repo root, after building into build/; only for an
# intended output change, which CHANGES.md must name):
#
#   sh tests/goldens/bench_goldens_test.sh build tests/goldens/benches
set -eu

BIN_DIR=$1
GOLDEN_DIR=$(cd "$(dirname "$0")" && pwd)/benches
if [ $# -ge 2 ]; then
  OUT_DIR=$2
else
  OUT_DIR=$(mktemp -d)
  trap 'rm -rf "$OUT_DIR"' EXIT
fi

fails=0
# golden NAME [ARGS...]: runs BIN_DIR/NAME ARGS and compares its stdout.
golden() {
  name=$1
  shift
  if ! "$BIN_DIR/$name" "$@" >"$OUT_DIR/$name.txt"; then
    echo "FAIL: $name exited non-zero"
    fails=$((fails + 1))
  elif ! cmp -s "$OUT_DIR/$name.txt" "$GOLDEN_DIR/$name.txt"; then
    diff "$GOLDEN_DIR/$name.txt" "$OUT_DIR/$name.txt" || true
    echo "FAIL: $name: stdout differs from tests/goldens/benches/$name.txt"
    fails=$((fails + 1))
  fi
}

golden bench_fig11_controlled_supply
golden bench_fig12_voltage_stability
golden bench_fig13_mpp_tracking
golden bench_fig14_power_neutrality
golden bench_fig15_overhead
golden bench_ablation_ordering
golden example_solar_day full-sun 1

[ "$fails" -eq 0 ] || { echo "$fails golden(s) failed"; exit 1; }
echo "bench goldens: all match"
