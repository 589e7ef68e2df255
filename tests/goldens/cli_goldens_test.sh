#!/bin/sh
# Byte-for-byte goldens of `pns_sweep` outputs, registered with ctest as
# `cli_goldens`.
#
#   cli_goldens_test.sh PNS_SWEEP [OUT_DIR]
#
# Runs each pinned sweep with --csv/--json (and, for the journalled
# cases, --journal folded through `merge --journal` into the canonical
# journal, whose header pins the sweep identity bytes), writes the files
# to OUT_DIR (default: a temporary directory) and `cmp`s each against
# tests/goldens/cli/. Sweeps are deterministic across thread counts, so
# any difference is an output change.
#
# Regenerate (from the repo root, after building into build/; only for an
# intended output change, which CHANGES.md must name):
#
#   sh tests/goldens/cli_goldens_test.sh "$PWD/build/pns_sweep" tests/goldens/cli
set -eu

BIN=$1
GOLDEN_DIR=$(cd "$(dirname "$0")" && pwd)/cli
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
if [ $# -ge 2 ]; then
  mkdir -p "$2"
  OUT_DIR=$(cd "$2" && pwd)
else
  OUT_DIR=$WORK
fi

fails=0
check() {
  if ! cmp -s "$OUT_DIR/$1" "$GOLDEN_DIR/$1"; then
    diff "$GOLDEN_DIR/$1" "$OUT_DIR/$1" || true
    echo "FAIL: $1 differs from tests/goldens/cli/$1"
    fails=$((fails + 1))
  fi
}

# golden NAME ARGS...: `pns_sweep ARGS` writes NAME.csv and NAME.json.
golden() {
  name=$1
  shift
  if ! "$BIN" "$@" --quiet --csv "$OUT_DIR/$name.csv" \
      --json "$OUT_DIR/$name.json" >/dev/null; then
    echo "FAIL: pns_sweep $* exited non-zero"
    fails=$((fails + 1))
    return
  fi
  check "$name.csv"
  check "$name.json"
}

# same_as NAME ARGS...: `pns_sweep ARGS` reproduces the existing golden
# NAME.csv and NAME.json byte for byte (an execution strategy that must
# not change a bit). Its outputs stay in the scratch directory, so a
# regeneration run never overwrites a golden with them.
same_as() {
  name=$1
  shift
  runs=$((runs + 1))
  out=$WORK/same_as.$runs
  if ! "$BIN" "$@" --quiet --csv "$out.csv" --json "$out.json" >/dev/null; then
    echo "FAIL: pns_sweep $* exited non-zero"
    fails=$((fails + 1))
    return
  fi
  for ext in csv json; do
    if ! cmp -s "$out.$ext" "$GOLDEN_DIR/$name.$ext"; then
      diff "$GOLDEN_DIR/$name.$ext" "$out.$ext" || true
      echo "FAIL: pns_sweep $* differs from tests/goldens/cli/$name.$ext"
      fails=$((fails + 1))
    fi
  done
}
runs=0

# journalled NAME ARGS...: as golden, plus NAME.canon.jsonl, the run's
# journal canonicalised by `merge --journal`.
journalled() {
  name=$1
  shift
  golden "$name" "$@" --journal "$WORK/$name.jsonl"
  if ! "$BIN" merge --quiet --journal "$OUT_DIR/$name.canon.jsonl" \
      "$WORK/$name.jsonl" >/dev/null; then
    echo "FAIL: merge --journal of $name exited non-zero"
    fails=$((fails + 1))
    return
  fi
  check "$name.canon.jsonl"
}

# Sweeps are deterministic across thread counts, for each engine and
# both PV modes.
golden table2_rk23 table2 --minutes 2
same_as table2_rk23 table2 --minutes 2 --threads 1
same_as table2_rk23 table2 --minutes 2 --threads 4
golden table2_rk23pi table2 --minutes 2 --integrator rk23pi
same_as table2_rk23pi table2 --minutes 2 --integrator rk23pi --threads 1
same_as table2_rk23pi table2 --minutes 2 --integrator rk23pi --threads 4
golden table2_tabulated table2 --minutes 2 --pv-mode tabulated
same_as table2_tabulated table2 --minutes 2 --pv-mode tabulated --threads 1
same_as table2_tabulated table2 --minutes 2 --pv-mode tabulated --threads 4
# width is execution-only: the identity in the header drops it.
journalled table2_rk23simd table2 --minutes 2 --integrator rk23simd:width=4
journalled quick quick
golden fig6 fig6
# rk23simd is an execution strategy over the rk23pi numerics: any width,
# any thread count, either PV mode, every build leg (the sanitizer builds
# run this script too) -- identical bytes. The retired spelling rk23batch
# resolves to the same engine.
golden quick_rk23pi quick --integrator rk23pi
same_as quick_rk23pi quick --integrator rk23simd
same_as quick_rk23pi quick --integrator rk23simd:width=8 --threads 4
same_as quick_rk23pi quick --integrator rk23batch:width=4 --threads 4
golden quick_tabulated_rk23pi quick --pv-mode tabulated --integrator rk23pi
same_as quick_tabulated_rk23pi quick --pv-mode tabulated --integrator rk23simd
golden capacitance capacitance --minutes 2
# Lockstep rows leave their unit as they finish -- capacitance's cloud
# rows on dense threshold events, Fig. 6's shadow holds on coast
# retirement -- and still publish rk23pi's bytes.
golden capacitance_rk23pi capacitance --minutes 2 --integrator rk23pi
same_as capacitance_rk23pi capacitance --minutes 2 --integrator rk23simd
same_as capacitance_rk23pi capacitance --minutes 2 \
  --integrator rk23simd:width=2 --threads 3
golden fig6_rk23pi fig6 --integrator rk23pi
same_as fig6_rk23pi fig6 --integrator rk23simd
same_as fig6_rk23pi fig6 --integrator rk23simd:width=2 --threads 3
# one multi-domain run: JSON-only per-domain arrays, platform identity.
journalled table2_biglittle table2 --minutes 2 --platform biglittle
# Parameterized spec strings on both registry axes, and a multi-domain
# platform with its own parameters under an mdgov wrapper.
golden quick_gov_flicker quick --control gov:ondemand:period=0.05 \
  --source flicker:period=30,depth=0.5
golden quick_biglittle_mdgov quick \
  --platform biglittle:arbiter=demand,uncore=true \
  --control mdgov:conservative:stagger=2.5 --control pns

[ "$fails" -eq 0 ] || { echo "$fails golden(s) failed"; exit 1; }
echo "cli goldens: all match"
