#!/bin/sh
# CLI contract tests for the sweep daemon, registered with ctest.
#
#   pns_sweepd_cli_test.sh /path/to/pns_sweep /path/to/pns_sweepd
#
# Covers the daemon-mode error surfaces, then the distributed workflows
# end-to-end over real processes and sockets: a 2-worker run, a run with
# a worker kill -9'd mid-sweep (re-lease path), a daemon restart
# (journal reload path), a 2-domain platform job, and a seeded `--fault`
# chaos run (injected connection drops, short IO, a failed fsync) must
# all publish a canonical journal, CSV and JSON byte-identical to a
# single-machine run of the same sweep.
set -eu

BIN=$1
DAEMON=$2
[ -x "$BIN" ] || { echo "pns_sweep binary not found: $BIN"; exit 1; }
[ -x "$DAEMON" ] || { echo "pns_sweepd binary not found: $DAEMON"; exit 1; }

WORK=$(mktemp -d)
DAEMON_PID=""
cleanup() {
  [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null
  rm -rf "$WORK"
}
trap cleanup EXIT
cd "$WORK"

fails=0
fail() { echo "FAIL: $1"; fails=$((fails + 1)); }

# Starts $DAEMON with the given args, scrapes the bound address into
# $ADDR and the pid into $DAEMON_PID. daemon.out is truncated *before*
# the spawn: the background child redirects it asynchronously, so a
# restart could otherwise scrape the previous daemon's address.
start_daemon() {
  : >daemon.out
  "$DAEMON" "$@" >>daemon.out 2>daemon.log &
  DAEMON_PID=$!
  i=0
  while [ $i -lt 100 ]; do
    ADDR=$(sed -n 's/^listening on \(.*\)$/\1/p' daemon.out)
    [ -n "$ADDR" ] && return 0
    kill -0 "$DAEMON_PID" 2>/dev/null || { cat daemon.log; return 1; }
    sleep 0.1
    i=$((i + 1))
  done
  return 1
}

stop_daemon() {
  kill "$1" 2>/dev/null || true
  wait "$1" 2>/dev/null || true
  DAEMON_PID=""
}

# --- error surfaces ----------------------------------------------------
"$DAEMON" >out.txt 2>err.txt && fail "pns_sweepd without --listen exited 0"
if "$DAEMON" --listen bogus-endpoint >out.txt 2>err.txt; then
  fail "bad --listen accepted"
fi
grep -q "unix:" err.txt || fail "bad --listen: accepted forms not named"

# Numeric flags: whole, finite, in range, or exit 2 naming the flag
# (before this check, `--lease-timeout abc` expired every lease at once).
for bad in "--lease-timeout abc" "--lease-timeout 0" "--lease-timeout -5" \
           "--lease-timeout inf" "--lease-rows x" "--lease-rows -1" \
           "--lease-rows 2.5" "--idle-poll abc" "--idle-poll 0"; do
  status=0
  # shellcheck disable=SC2086 # split "--flag value" into two words
  "$DAEMON" --listen tcp:0 --state-dir nostate $bad >out.txt 2>err.txt || \
    status=$?
  [ "$status" -eq 2 ] || fail "pns_sweepd '$bad' exited $status, not 2"
  grep -q -- "${bad%% *}" err.txt || fail "pns_sweepd '$bad': flag not named"
done
[ -e nostate ] && fail "a refused pns_sweepd flag still created its state dir"

"$BIN" worker >out.txt 2>err.txt && fail "worker without --connect exited 0"
grep -q -- "--connect" err.txt || fail "worker: --connect not named"
"$BIN" submit --connect tcp:1 >out.txt 2>err.txt && \
  fail "submit without a sweep name exited 0"
"$BIN" results --connect tcp:1 >out.txt 2>err.txt && \
  fail "results without a job id exited 0"
"$BIN" quick --connect tcp:1 --quiet >out.txt 2>err.txt && \
  fail "--connect on a plain sweep run accepted"
"$BIN" quick --fsync --quiet >out.txt 2>err.txt && \
  fail "--fsync without --journal accepted"
if "$BIN" status --connect "tcp:127.0.0.1:1" >out.txt 2>err.txt; then
  fail "status against a dead endpoint exited 0"
fi

# --- daemon lifecycle + 2-worker quick run -----------------------------
mkdir state
start_daemon --listen tcp:0 --state-dir state --fsync --idle-poll 0.05 || \
  { fail "daemon did not start"; exit 1; }

"$BIN" submit quick --connect "$ADDR" >submit.txt || fail "submit failed"
grep -q "job-1" submit.txt || fail "submit: no job id reported"
grep -q "12 scenarios" submit.txt || fail "submit: scenario count missing"

# An unknown preset is refused before submission, naming the valid choices
# (tests/sweepd covers the daemon-side rejection of a wire submit).
if "$BIN" submit no-such-sweep --connect "$ADDR" >out.txt 2>err.txt; then
  fail "submit of unknown preset exited 0"
fi
grep -q "quick" err.txt || fail "submit rejection: presets not named"

# results of an unfinished job must refuse to publish files.
if "$BIN" results job-1 --connect "$ADDR" --csv early.csv \
    >out.txt 2>err.txt; then
  fail "results --csv of incomplete job exited 0"
fi
grep -q "wait for completion" err.txt || \
  fail "incomplete results: no completion hint"

"$BIN" worker --connect "$ADDR" --once --quiet >w1.txt &
W1=$!
"$BIN" worker --connect "$ADDR" --once --quiet >w2.txt &
W2=$!
wait "$W1" || fail "worker 1 failed"
wait "$W2" || fail "worker 2 failed"

"$BIN" status --connect "$ADDR" >status.txt || fail "status failed"
grep -q "complete" status.txt || fail "status: job-1 not complete"

"$BIN" results job-1 --connect "$ADDR" --quiet \
  --journal dist.canon.jsonl --csv dist.csv --json dist.json >/dev/null || \
  fail "results failed"

# The single-machine reference, canonicalised through merge --journal.
"$BIN" quick --quiet --journal local.jsonl --csv local.csv \
  --json local.json >/dev/null || fail "local reference run failed"
"$BIN" merge --quiet --journal local.canon.jsonl local.jsonl >/dev/null || \
  fail "merge --journal failed"
cmp -s local.canon.jsonl dist.canon.jsonl || \
  fail "distributed canonical journal differs from local run"
cmp -s local.csv dist.csv || fail "distributed CSV differs from local run"
cmp -s local.json dist.json || fail "distributed JSON differs from local run"

# --- worker killed mid-sweep: re-lease, still byte-identical ----------
"$BIN" submit table2 --minutes 10 --connect "$ADDR" >submit2.txt || \
  fail "table2 submit failed"
grep -q "job-2" submit2.txt || fail "second job id is not job-2"

"$BIN" worker --connect "$ADDR" --threads 1 --quiet >victim.txt 2>&1 &
VICTIM=$!
sleep 0.4
kill -9 "$VICTIM" 2>/dev/null || fail "victim worker already gone"
wait "$VICTIM" 2>/dev/null || true

"$BIN" worker --connect "$ADDR" --once --quiet >w3.txt &
W3=$!
"$BIN" worker --connect "$ADDR" --once --quiet >w4.txt &
W4=$!
wait "$W3" || fail "worker 3 failed"
wait "$W4" || fail "worker 4 failed"

"$BIN" results job-2 --connect "$ADDR" --quiet \
  --journal kill.canon.jsonl --csv kill.csv >/dev/null || \
  fail "results after worker kill failed"
"$BIN" table2 --minutes 10 --quiet --journal t2.jsonl --csv t2.csv \
  >/dev/null || fail "local table2 reference failed"
"$BIN" merge --quiet --journal t2.canon.jsonl t2.jsonl >/dev/null || \
  fail "table2 merge --journal failed"
cmp -s t2.canon.jsonl kill.canon.jsonl || \
  fail "canonical journal differs after worker kill"
cmp -s t2.csv kill.csv || fail "CSV differs after worker kill"

# --- daemon restart: jobs reload from the state dir -------------------
stop_daemon "$DAEMON_PID"
start_daemon --listen tcp:0 --state-dir state --idle-poll 0.05 || \
  { fail "daemon did not restart"; exit 1; }
"$BIN" status --connect "$ADDR" >status2.txt || \
  fail "status after restart failed"
grep -q "job-1" status2.txt || fail "restart: job-1 lost"
grep -q "job-2" status2.txt || fail "restart: job-2 lost"
"$BIN" results job-2 --connect "$ADDR" --quiet --csv restart.csv \
  >/dev/null || fail "results after restart failed"
cmp -s t2.csv restart.csv || fail "CSV differs after daemon restart"

# --- multi-domain platform: the spec string travels in the job ---------
# A 2-domain table2 job through 2 pull-workers (each compiles the
# topology locally) publishes the bytes of the single-machine run.
MD="table2 --minutes 2 --platform biglittle:arbiter=demand \
    --control mdgov:ondemand --control pns"
# shellcheck disable=SC2086 # split $MD into words
"$BIN" submit $MD --connect "$ADDR" >submit3.txt || fail "biglittle submit failed"
grep -q "job-3" submit3.txt || fail "biglittle job id is not job-3"
"$BIN" worker --connect "$ADDR" --once --quiet >w5.txt &
W5=$!
"$BIN" worker --connect "$ADDR" --once --quiet >w6.txt &
W6=$!
wait "$W5" || fail "biglittle worker 1 failed"
wait "$W6" || fail "biglittle worker 2 failed"
"$BIN" results job-3 --connect "$ADDR" --quiet --journal md-dist.canon.jsonl \
  --csv md-dist.csv --json md-dist.json >/dev/null || \
  fail "biglittle results failed"
# shellcheck disable=SC2086
"$BIN" $MD --quiet --journal md.jsonl --csv md.csv --json md.json \
  >/dev/null || fail "local biglittle reference failed"
"$BIN" merge --quiet --journal md.canon.jsonl md.jsonl >/dev/null || \
  fail "biglittle merge --journal failed"
cmp -s md.canon.jsonl md-dist.canon.jsonl || \
  fail "biglittle canonical journal differs from local run"
cmp -s md.csv md-dist.csv || fail "biglittle CSV differs from local run"
cmp -s md.json md-dist.json || fail "biglittle JSON differs from local run"

# --- orderly shutdown over the protocol -------------------------------
"$BIN" shutdown --connect "$ADDR" >shutdown.txt || fail "shutdown failed"
wait "$DAEMON_PID" || fail "daemon exited non-zero after shutdown"
DAEMON_PID=""

# --- the same flows over a Unix socket --------------------------------
start_daemon --listen "unix:$WORK/d.sock" --state-dir "$WORK/ustate" || \
  { fail "unix-socket daemon did not start"; exit 1; }
[ "$ADDR" = "unix:$WORK/d.sock" ] || fail "unix daemon printed '$ADDR'"
"$BIN" submit quick --connect "$ADDR" >/dev/null || fail "unix submit failed"
"$BIN" worker --connect "$ADDR" --once --quiet >/dev/null || \
  fail "unix worker failed"
"$BIN" results job-1 --connect "$ADDR" --quiet --csv unix.csv \
  >/dev/null || fail "unix results failed"
cmp -s local.csv unix.csv || fail "unix-socket CSV differs from local run"
"$BIN" shutdown --connect "$ADDR" >/dev/null || fail "unix shutdown failed"
wait "$DAEMON_PID" || fail "unix daemon exited non-zero"
DAEMON_PID=""

# --- chaos: a seeded --fault run stays byte-identical ------------------
# Bad fault specs are rejected up front, naming the accepted keys.
if "$DAEMON" --listen tcp:0 --state-dir nostate \
    --fault "fault:frobnicate=1" >out.txt 2>err.txt; then
  fail "daemon accepted a bogus --fault spec"
fi
grep -q "conn_drop" err.txt || fail "bad --fault: accepted keys not named"
if "$BIN" worker --connect tcp:1 --fault "fault:conn_drop=2" \
    >out.txt 2>err.txt; then
  fail "worker accepted an out-of-range --fault probability"
fi

# Daemon under a transient injected fsync failure (degrades, self-heals)
# and workers under seeded connection drops / short IO / EINTR storms:
# the published artifacts must still equal the clean local run byte for
# byte -- the same files the 2-worker section produced above.
mkdir chaos-state
start_daemon --listen tcp:0 --state-dir chaos-state --fsync \
    --idle-poll 0.05 --fault "fault:seed=7,fsync_fail=3" || \
  { fail "chaos daemon did not start"; exit 1; }
"$BIN" submit quick --connect "$ADDR" >/dev/null || \
  fail "chaos submit failed"

# Per-worker liveness in status: park a long-lived worker and wait for
# its heartbeat row to appear.
"$BIN" worker --connect "$ADDR" --quiet \
    --fault "fault:seed=301,short_read=0.2,short_write=0.2,eintr=0.2" \
    >wl.txt 2>&1 &
LIVEW=$!
i=0
seen=""
while [ $i -lt 100 ]; do
  "$BIN" status --connect "$ADDR" >cstatus.txt 2>/dev/null || true
  if grep -q "thread(s)" cstatus.txt; then seen=1; break; fi
  sleep 0.1
  i=$((i + 1))
done
[ -n "$seen" ] || fail "status never showed a per-worker liveness row"
grep -q "last seen" cstatus.txt || fail "status: heartbeat age missing"

# Two chaos workers finish whatever the parked one leaves; then release
# the parked worker (its job is gone, it exits on the daemon shutdown
# below, so just kill it once the job completes).
"$BIN" worker --connect "$ADDR" --once --quiet \
    --fault "fault:seed=302,conn_drop=0.01,short_read=0.2,short_write=0.2,eintr=0.2" \
    >cw1.txt || fail "chaos worker 1 failed"
"$BIN" worker --connect "$ADDR" --once --quiet \
    --fault "fault:seed=303,conn_drop=0.01,short_read=0.2,short_write=0.2,eintr=0.2" \
    >cw2.txt || fail "chaos worker 2 failed"
kill "$LIVEW" 2>/dev/null || true
wait "$LIVEW" 2>/dev/null || true

"$BIN" status --connect "$ADDR" >cstatus2.txt || fail "chaos status failed"
grep -q "complete" cstatus2.txt || fail "chaos job did not complete"
grep -q "DEGRADED" cstatus2.txt && \
  fail "daemon still degraded after transient fsync fault"

"$BIN" results job-1 --connect "$ADDR" --quiet \
  --journal chaos.canon.jsonl --csv chaos.csv --json chaos.json \
  >/dev/null || fail "chaos results failed"
cmp -s local.canon.jsonl chaos.canon.jsonl || \
  fail "chaos canonical journal differs from clean run"
cmp -s local.csv chaos.csv || fail "chaos CSV differs from clean run"
cmp -s local.json chaos.json || fail "chaos JSON differs from clean run"

"$BIN" shutdown --connect "$ADDR" >/dev/null || fail "chaos shutdown failed"
wait "$DAEMON_PID" || fail "chaos daemon exited non-zero"
DAEMON_PID=""

if [ "$fails" -ne 0 ]; then
  echo "$fails daemon CLI check(s) failed"
  exit 1
fi
echo "all daemon CLI checks passed"
