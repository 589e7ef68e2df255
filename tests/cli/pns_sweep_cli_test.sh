#!/bin/sh
# CLI contract tests for pns_sweep, registered with ctest.
#
#   pns_sweep_cli_test.sh /path/to/pns_sweep
#
# Covers the error surfaces (unknown sweep/flag must name the valid
# choices and exit non-zero, inconsistent flag combinations are refused,
# every command refuses the flags it does not read), `list` and `--help`
# byte for byte against list.golden and help.golden, every --help flag
# documented in docs/sweeps.md, and the checkpoint workflows end-to-end
# on the quick preset: a 2-shard
# run merged, and an interrupted run resumed, must both produce a CSV
# byte-identical to a single uninterrupted run.
set -eu

BIN=$1
[ -x "$BIN" ] || { echo "pns_sweep binary not found: $BIN"; exit 1; }
LIST_GOLDEN=$(cd "$(dirname "$0")" && pwd)/list.golden
HELP_GOLDEN=$(cd "$(dirname "$0")" && pwd)/help.golden
SWEEPS_DOC=$(cd "$(dirname "$0")/../.." && pwd)/docs/sweeps.md

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

fails=0
fail() { echo "FAIL: $1"; fails=$((fails + 1)); }

# --- diagnostics: unknown sweep / flag list the valid choices, exit != 0
if "$BIN" no-such-sweep >out.txt 2>err.txt; then
  fail "unknown sweep exited 0"
fi
grep -q "valid sweeps:" err.txt || fail "unknown sweep: choices not listed"
grep -q "table2" err.txt || fail "unknown sweep: table2 missing from choices"

if "$BIN" quick --no-such-flag >out.txt 2>err.txt; then
  fail "unknown flag exited 0"
fi
grep -q "unknown option: --no-such-flag" err.txt || \
  fail "unknown flag not named in diagnostics"

if "$BIN" quick --pv-mode warp >out.txt 2>err.txt; then
  fail "bad --pv-mode exited 0"
fi
grep -q "valid: exact, tabulated" err.txt || \
  fail "bad --pv-mode: choices not listed"

"$BIN" --help >/dev/null 2>&1 || fail "--help exited non-zero"

# --- numeric flags: whole, finite, in range, or exit 2 naming the flag
# (before this check, `--minutes abc` ran every row into a precondition
# failure and `--threads x` silently meant hardware concurrency)
for bad in "--minutes abc" "--minutes 2x" "--minutes nan" "--minutes inf" \
           "--minutes 0" "--minutes -1" "--threads x" "--threads -2" \
           "--threads 1.5" "--threads 99999999999" "--refine-tol abc" \
           "--refine-tol -0.1" "--refine-depth 2.5" "--refine-depth -1" \
           "--max-reconnects x" "--max-reconnects -1"; do
  flag=${bad%% *}
  status=0
  # shellcheck disable=SC2086 # split "--flag value" into two words
  "$BIN" quick --quiet $bad >out.txt 2>err.txt || status=$?
  [ "$status" -eq 2 ] || fail "'$bad' exited $status, not 2"
  grep -q -- "${flag#--}" err.txt || \
    fail "'$bad': flag not named in diagnostics"
  [ -s out.txt ] && fail "'$bad' ran the sweep"
done
"$BIN" quick --quiet --minutes 1e-2 --threads 2 --csv tiny.csv >/dev/null || \
  fail "well-formed --minutes 1e-2 --threads 2 refused"

# --- refused flag combinations
"$BIN" quick --shard 0/2 --quiet 2>/dev/null && fail "--shard without --journal accepted"
"$BIN" quick --resume --quiet 2>/dev/null && fail "--resume without --journal accepted"
"$BIN" quick --shard 2/2 --journal j.jsonl --quiet 2>/dev/null && fail "--shard K>=N accepted"
"$BIN" quick --shard x/y --journal j.jsonl --quiet 2>/dev/null && fail "malformed --shard accepted"
# each half of K/N is a whole count (parse_count): a sign or a blank is
# refused, not read through strtoull ("1/-4" used to run 0 rows and exit 0)
for bad in "1/-4" "-0/4" "+1/4" " 1/4" "1/4 " "/4" "1/"; do
  status=0
  "$BIN" quick --shard "$bad" --journal bad-shard.jsonl --quiet \
    >out.txt 2>err.txt || status=$?
  [ "$status" -eq 2 ] || fail "--shard '$bad' exited $status, not 2"
  grep -q -- "--shard" err.txt || fail "--shard '$bad': flag not named"
  [ -e bad-shard.jsonl ] && fail "--shard '$bad' wrote a journal"
done
"$BIN" quick --shard 0/2 --journal j.jsonl --csv p.csv --quiet 2>/dev/null && \
  fail "--shard with --csv accepted (partial aggregate)"
"$BIN" quick --refine --refine-metric bogus --quiet 2>/dev/null && \
  fail "unknown --refine-metric accepted"

# --- a flag the chosen command would ignore is refused, naming the flag,
# instead of running as if it were absent (an unread --refine-metric
# would not even be validated)
for bad in "quick --once" "quick --fault fault:seed=1,conn_drop=0.5" \
           "quick --max-reconnects 3" "submit quick --once" \
           "status --fault fault:seed=1" "quick --refine-metric nonsense" \
           "quick --refine-tol 0.1" "quick --refine-depth 2" \
           "merge --refine-depth 2 m.jsonl" "quick --out o.jsonl" \
           "quick --connect tcp:127.0.0.1:1"; do
  flag=$(printf '%s\n' "$bad" | sed 's/.*\(--[a-z-]*\).*/\1/')
  status=0
  # shellcheck disable=SC2086 # split the command line into words
  "$BIN" $bad --quiet >out.txt 2>err.txt || status=$?
  [ "$status" -eq 2 ] || fail "'$bad' exited $status, not 2"
  grep -q -- "$flag only applies to" err.txt || \
    fail "'$bad': flag not named in diagnostics"
  [ -s out.txt ] && fail "'$bad' ran the sweep"
done

# --- submit refuses the flags only a local run honours (the daemon
# journals the job; `results` publishes it) before contacting anyone
for flag in "--journal j.jsonl" "--csv s.csv" "--json s.json" \
            "--shard 0/2" "--cost-journal c.jsonl" "--resume" "--refine" \
            "--fsync"; do
  status=0
  # shellcheck disable=SC2086
  "$BIN" submit quick --connect tcp:127.0.0.1:1 $flag >out.txt 2>err.txt || \
    status=$?
  [ "$status" -eq 2 ] || fail "submit with $flag exited $status, not 2"
  grep -q -- "${flag%% *} does not apply to submit" err.txt || \
    fail "submit with $flag: flag not named"
done

# --- every command refuses the flags it does not read, naming the first
# one in command-line order, before any work: exit 2, nothing on stdout,
# no file written and no daemon contacted (nothing listens on $EP, so a
# contact attempt would exit 1)
EP="unix:$WORK/no-daemon.sock"
while IFS='|' read -r flag args; do
  status=0
  # shellcheck disable=SC2086 # split the command line into words
  "$BIN" $args >out.txt 2>err.txt || status=$?
  [ "$status" -eq 2 ] || fail "'$args' exited $status, not 2"
  grep -q -- "^$flag only applies to" err.txt || \
    fail "'$args': $flag not named"
  [ -s out.txt ] && fail "'$args' wrote to stdout"
  for f in w.csv x.csv r.csv r.json none.jsonl; do
    [ -e "$f" ] && fail "'$args' wrote $f"
  done
done <<EOF
--minutes|worker --connect $EP --minutes 5 --control pns --csv w.csv --refine
--control|worker --connect $EP --once --control pns
--csv|worker --connect $EP --csv w.csv
--threads|status --connect $EP --threads 3 --pv-mode tabulated
--quiet|status job-1 --connect $EP --quiet
--refine|results job-1 --connect $EP --refine
--threads|results job-1 --connect $EP --csv r.csv --threads 2
--json|watch job-1 --connect $EP --json r.json
--minutes|watch job-1 --connect $EP --quiet --minutes 5
--quiet|shutdown --connect $EP --quiet
--control|shutdown --connect $EP --control pns
--minutes|merge --minutes 5 --integrator rk23pi m.jsonl
--threads|merge --csv x.csv --threads 2 m.jsonl
--csv|compact --csv x.csv none.jsonl
--resume|compact --out none.jsonl --resume m.jsonl
--csv|list --csv x.csv
EOF
status=0
"$BIN" submit quick --connect "$EP" --threads 2 >out.txt 2>err.txt || \
  status=$?
[ "$status" -eq 2 ] || fail "submit with --threads exited $status, not 2"
grep -q -- "--threads does not apply to submit" err.txt || \
  fail "submit with --threads: flag not named"

# --- --help and -h are accepted by every command
for cmd in quick list merge compact worker submit status results watch \
           shutdown; do
  "$BIN" "$cmd" --help >/dev/null 2>&1 || fail "$cmd --help exited non-zero"
  "$BIN" "$cmd" -h >/dev/null 2>&1 || fail "$cmd -h exited non-zero"
done

# --- --help is generated from the flag table: pinned byte for byte
# (argv[0] reads "pns_sweep" when the binary is found through PATH), and
# every flag it prints has a row in the options table of docs/sweeps.md
PATH="$(dirname "$BIN"):$PATH" pns_sweep --help >help.txt 2>&1 || \
  fail "--help exited non-zero"
cmp -s help.txt "$HELP_GOLDEN" || {
  diff "$HELP_GOLDEN" help.txt || true
  fail "--help: output differs from tests/cli/help.golden"
}
for flag in $(sed -n 's/^  \(--[a-z-]*\).*/\1/p' help.txt); do
  grep -q "^| \`$flag[ \`]" "$SWEEPS_DOC" || \
    fail "docs/sweeps.md: no options-table row for $flag"
done
[ "$(grep -c '^  --' help.txt)" -ge 24 ] || fail "--help lists too few flags"

# --- the list subcommand is generated from the registries
"$BIN" list >list.txt 2>&1 || fail "list exited non-zero"
cmp -s list.txt "$LIST_GOLDEN" || {
  diff "$LIST_GOLDEN" list.txt || true
  fail "list: output differs from tests/cli/list.golden"
}
for needle in "pns" "gov:ondemand" "static" "solar" "shadow" "trace" \
              "flicker" "period=<double>" "up_threshold=<double>" \
              "rk23" "rk23pi" "rk23simd" "coast=<bool>" "width=<uint>" \
              "table2" "quick"; do
  grep -q "$needle" list.txt || fail "list: '$needle' missing"
done
grep -q "rk23batch" list.txt && fail "list: retired kind rk23batch listed"

# --- control/source spec-string diagnostics name the valid choices
if "$BIN" quick --control warp-speed >out.txt 2>err.txt; then
  fail "unknown control kind exited 0"
fi
grep -q "gov:ondemand" err.txt || fail "unknown control: kinds not listed"
if "$BIN" quick --control pns:warp=1 >out.txt 2>err.txt; then
  fail "unknown control param exited 0"
fi
grep -q "v_q" err.txt || fail "unknown control param: keys not listed"
if "$BIN" quick --source flicker:period=abc >out.txt 2>err.txt; then
  fail "malformed source param value exited 0"
fi
grep -q "expected a number" err.txt || \
  fail "malformed source value: no type diagnostic"

# --- integrator spec strings: diagnostics + end-to-end run
if "$BIN" quick --integrator rk99 >out.txt 2>err.txt; then
  fail "unknown integrator kind exited 0"
fi
grep -q "rk23pi" err.txt || fail "unknown integrator: kinds not listed"
if "$BIN" quick --integrator rk23pi:warp=1 >out.txt 2>err.txt; then
  fail "unknown integrator param exited 0"
fi
grep -q "rtol" err.txt || fail "unknown integrator param: keys not listed"
"$BIN" quick --quiet --integrator rk23pi --csv pi.csv >/dev/null || \
  fail "rk23pi run failed"
"$BIN" quick --quiet --integrator rk23pi --threads 4 --csv pi4.csv \
  >/dev/null || fail "rk23pi threaded run failed"
cmp -s pi.csv pi4.csv || fail "rk23pi CSV differs across thread counts"

# --- rk23simd is an execution strategy over rk23pi: byte-identical
# aggregates at every width and thread count, width=1 included; the
# retired spelling rk23batch still runs the same engine
"$BIN" quick --quiet --integrator rk23simd --csv bat.csv >/dev/null || \
  fail "rk23simd run failed"
"$BIN" quick --quiet --integrator rk23simd:width=1 --csv bat1.csv \
  >/dev/null || fail "rk23simd width=1 run failed"
"$BIN" quick --quiet --integrator rk23batch:width=4 --threads 4 \
  --csv bat4.csv >/dev/null || fail "rk23batch width=4 threaded run failed"
cmp -s pi.csv bat.csv || fail "rk23simd CSV differs from rk23pi"
cmp -s pi.csv bat1.csv || fail "rk23simd width=1 CSV differs from rk23pi"
cmp -s pi.csv bat4.csv || \
  fail "rk23batch width=4/threads=4 CSV differs from rk23pi"

# --- width is execution-only: journals interchange across widths
"$BIN" quick --quiet --integrator rk23batch:width=4 --journal w.jsonl \
  >/dev/null || fail "journalled rk23batch run failed"
"$BIN" quick --quiet --integrator rk23batch:width=8 --resume \
  --journal w.jsonl >/dev/null || \
  fail "journal not reusable across rk23batch widths"

# --- a parameterized governor runs end-to-end from the CLI
"$BIN" quick --quiet --control gov:ondemand:period=0.05 --control pns \
  --csv tuned.csv >/dev/null || fail "parameterized governor run failed"
grep -q "gov:ondemand" tuned.csv || fail "tuned run: governor row missing"

# --- the flicker and trace sources run end-to-end from the CLI
"$BIN" quick --quiet --source flicker:period=30,depth=0.5 --csv flick.csv \
  >/dev/null || fail "flicker source run failed"
grep -q "flicker" flick.csv || fail "flicker run: condition cell missing"
printf "t,wm2\n0,0\n43200,800\n86400,0\n" > day.csv
"$BIN" quick --quiet --source "trace:file=day.csv" --csv traced.csv \
  >/dev/null || fail "trace source run failed"
grep -q "trace" traced.csv || fail "trace run: condition cell missing"

# --- journal identity pins the control/source spec strings
"$BIN" quick --quiet --control gov:ondemand:period=0.05 \
  --journal spec.jsonl >/dev/null || fail "journalled tuned run failed"
if "$BIN" quick --quiet --control gov:ondemand:period=0.1 --resume \
  --journal spec.jsonl >/dev/null 2>err.txt; then
  fail "journal reused across differing --control specs"
fi
grep -q "gov:ondemand:period=0.05" err.txt || \
  fail "identity mismatch: original spec string not named"

# --- reference: one uninterrupted run
"$BIN" quick --quiet --csv ref.csv --json ref.json >/dev/null || \
  fail "reference quick run failed"

# --- 2-shard + merge is byte-identical
"$BIN" quick --quiet --shard 0/2 --journal s0.jsonl >/dev/null || fail "shard 0/2 failed"
"$BIN" quick --quiet --shard 1/2 --journal s1.jsonl >/dev/null || fail "shard 1/2 failed"
"$BIN" merge --quiet --csv merged.csv --json merged.json s0.jsonl s1.jsonl >/dev/null || \
  fail "merge failed"
cmp -s ref.csv merged.csv || fail "merged CSV differs from single-run CSV"
cmp -s ref.json merged.json || fail "merged JSON differs from single-run JSON"

# --- merge of an incomplete journal set is an error
if "$BIN" merge --quiet --csv partial.csv s0.jsonl >/dev/null 2>err.txt; then
  fail "merge of one shard exited 0"
fi
grep -q "missing" err.txt || fail "incomplete merge: no missing-shards message"

# --- interrupt (one shard's worth of progress) + resume is byte-identical
"$BIN" quick --quiet --shard 0/2 --journal r.jsonl >/dev/null || fail "partial run failed"
"$BIN" quick --quiet --journal r.jsonl --csv resumed.csv >/dev/null 2>&1 && \
  fail "existing journal without --resume accepted"
"$BIN" quick --quiet --resume --journal r.jsonl --csv resumed.csv >resume_out.txt || \
  fail "resume failed"
grep -q "resumed from journal" resume_out.txt || fail "resume did not reuse journal rows"
# the header names the rows left to run, not the rows the journal holds
grep -q "12 scenarios, 6 in journal, 6 to run on" resume_out.txt || \
  fail "resume header does not count the rows left to run"
cmp -s ref.csv resumed.csv || fail "resumed CSV differs from single-run CSV"

# --- a journal from different sweep parameters is refused
"$BIN" quick --quiet --minutes 5 --resume --journal r.jsonl 2>err.txt && \
  fail "journal reused across differing --minutes"

# --- a journal under a different --integrator is refused
"$BIN" quick --quiet --integrator rk23pi --resume --journal r.jsonl \
  2>err.txt && fail "journal reused across differing --integrator"

# --- compact: rewritten journal resumes byte-identically
"$BIN" quick --quiet --journal c.jsonl >/dev/null || fail "compact prep run failed"
"$BIN" compact c.jsonl >compact_out.txt || fail "compact failed"
grep -q "compacted" compact_out.txt || fail "compact: no summary line"
[ "$(wc -l < c.jsonl)" -eq 2 ] || fail "compacted journal is not 2 lines"
"$BIN" quick --quiet --resume --journal c.jsonl --csv compacted.csv \
  >compact_resume.txt || fail "resume from compacted journal failed"
grep -q "12 resumed from journal" compact_resume.txt || \
  fail "compacted resume re-simulated scenarios"
grep -q "12 scenarios, 12 in journal, 0 to run on 0 thread(s)" \
  compact_resume.txt || fail "complete journal: header counts journaled rows"
cmp -s ref.csv compacted.csv || fail "compacted-resume CSV differs"
"$BIN" compact >/dev/null 2>&1 && fail "compact without a journal accepted"

# --- cost-balanced sharding: planned shards merge byte-identically
"$BIN" quick --quiet --cost-journal c.jsonl 2>/dev/null && \
  fail "--cost-journal without --shard accepted"
"$BIN" quick --quiet --shard 0/2 --journal b0.jsonl --cost-journal c.jsonl \
  >/dev/null || fail "cost-balanced shard 0/2 failed"
"$BIN" quick --quiet --shard 1/2 --journal b1.jsonl --cost-journal c.jsonl \
  >/dev/null || fail "cost-balanced shard 1/2 failed"
"$BIN" merge --quiet --csv balanced.csv b0.jsonl b1.jsonl >/dev/null || \
  fail "merge of cost-balanced shards failed"
cmp -s ref.csv balanced.csv || fail "cost-balanced merged CSV differs"

if [ "$fails" -ne 0 ]; then
  echo "$fails CLI check(s) failed"
  exit 1
fi
echo "all CLI checks passed"
