#!/bin/sh
# rvpredictd fault drills (docs/SERVER.md, docs/ROBUSTNESS.md): every
# injectable network/server fault kills exactly one session — the victim
# gets a typed ERROR (or a torn socket), the next session is byte-identical
# to batch, and the daemon keeps serving and still drains cleanly on
# SIGTERM. Plus the operational contracts: load shedding is observable
# (`degraded` REPORT frames, server.degraded_windows), backpressure fires
# under a tiny watermark, the session budget refuses the N+1th client, a
# stalled client is reaped by --stall-timeout, and a session replayed with
# the same checkpoint key resumes instead of recomputing.
#
# Usage: scripts/check_server.sh <rvpredict> <rvpredictd> <rvpclient>
set -eu

RVPREDICT="${1:?usage: check_server.sh <rvpredict> <rvpredictd> <rvpclient>}"
RVPREDICTD="${2:?missing rvpredictd}"
RVPCLIENT="${3:?missing rvpclient}"
cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
DAEMON_PID=""
cleanup() {
  [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

FAILURES=0
CHECKS=0

normalize() { sed 's/ in [0-9.]*s/ in Xs/' "$1"; }

fail() {
  echo "FAIL [$1]"
  shift
  for F in "$@"; do
    echo "    --- $F ---"
    sed 's/^/    /' "$F" 2>/dev/null || true
  done
  FAILURES=$((FAILURES + 1))
}

wait_for_socket() {
  I=0
  while [ ! -S "$1" ]; do
    I=$((I + 1))
    [ "$I" -gt 100 ] && { echo "daemon never bound $1"; exit 1; }
    sleep 0.1
  done
}

start_daemon() {
  SOCK="$WORK/d.sock"
  rm -f "$SOCK"
  "$RVPREDICTD" --socket="$SOCK" --stats-json="$WORK/stats.json" "$@" \
    2>"$WORK/daemon.err" &
  DAEMON_PID=$!
  wait_for_socket "$SOCK"
}

# stop_daemon [expected-rc]: SIGTERM must drain to the expected code
# (default 0), and the stats JSON must be written.
stop_daemon() {
  WANT="${1:-0}"
  kill -TERM "$DAEMON_PID"
  RC=0
  wait "$DAEMON_PID" || RC=$?
  DAEMON_PID=""
  CHECKS=$((CHECKS + 1))
  if [ "$RC" -ne "$WANT" ]; then
    echo "FAIL [drain]: daemon exited $RC after SIGTERM (wanted $WANT)"
    sed 's/^/    /' "$WORK/daemon.err"
    FAILURES=$((FAILURES + 1))
  fi
}

# expect_counter <name> <min> <label>: reads the daemon's stats JSON.
expect_counter() {
  NAME="$1"; MIN="$2"; LABEL="$3"
  CHECKS=$((CHECKS + 1))
  VALUE=$(sed -n "s/.*\"$NAME\":\([0-9][0-9]*\).*/\1/p" "$WORK/stats.json" \
    | head -1)
  if [ -z "$VALUE" ] || [ "$VALUE" -lt "$MIN" ]; then
    fail "$LABEL: $NAME = '${VALUE:-absent}' (wanted >= $MIN)" \
      "$WORK/stats.json"
  fi
}

# expect_run_metadata <label>: the daemon's stats JSON starts with the run
# metadata every --stats-json object carries (docs/OBSERVABILITY.md).
expect_run_metadata() {
  CHECKS=$((CHECKS + 1))
  if ! head -c 200 "$WORK/stats.json" | grep -Eq \
      '^\{"schema_version":[0-9]+,"git_sha":"[^"]+","timestamp":"[0-9T:-]+Z",'
  then
    fail "$1: stats JSON does not start with the run metadata" \
      "$WORK/stats.json"
  fi
}

# clean_client <label>: a fresh session must still match batch exactly.
clean_client() {
  LABEL="$1"
  RC=0
  "$RVPCLIENT" "$WORK/racy.txt" --socket="$SOCK" --window=30 \
    --summary-only >"$WORK/clean_out.txt" 2>"$WORK/clean_err.txt" || RC=$?
  CHECKS=$((CHECKS + 1))
  if [ "$RC" -ne 0 ]; then
    fail "$LABEL: clean follow-up client exited $RC" "$WORK/clean_err.txt"
  elif ! normalize "$WORK/clean_out.txt" >"$WORK/clean_out.n" || \
       ! cmp -s "$WORK/batch.n" "$WORK/clean_out.n"; then
    fail "$LABEL: clean follow-up summary differs from batch" \
      "$WORK/batch.txt" "$WORK/clean_out.txt"
  fi
}

# daemon_alive <label>: the fault must never take the server down.
daemon_alive() {
  CHECKS=$((CHECKS + 1))
  if ! kill -0 "$DAEMON_PID" 2>/dev/null; then
    fail "$1: daemon died"
    wait "$DAEMON_PID" || true
    DAEMON_PID=""
  fi
}

"$RVPREDICT" record bench:bufwriter --out="$WORK/racy.txt" >/dev/null
"$RVPREDICT" detect "$WORK/racy.txt" --window=30 >"$WORK/batch.txt" || true
normalize "$WORK/batch.txt" >"$WORK/batch.n"

# --- Server-side fault sites: one victim, daemon and others unharmed ----
# Each site fires once (=1): the first session trips it, the follow-up
# session must be byte-identical to batch.

for SITE in net.frame_garble net.short_write server.worker_abort; do
  start_daemon --inject-faults="$SITE=1"
  RC=0
  "$RVPCLIENT" "$WORK/racy.txt" --socket="$SOCK" --window=30 \
    --summary-only >"$WORK/victim_out.txt" 2>"$WORK/victim_err.txt" || RC=$?
  CHECKS=$((CHECKS + 1))
  # The victim must fail loudly — an injected fault may never pass silently
  # ... unless the garbled byte landed somewhere harmless, in which case
  # the summary must still match batch.
  if [ "$RC" -eq 0 ]; then
    if ! normalize "$WORK/victim_out.txt" >"$WORK/victim_out.n" || \
       ! cmp -s "$WORK/batch.n" "$WORK/victim_out.n"; then
      fail "$SITE: victim 'succeeded' with a wrong summary" \
        "$WORK/victim_out.txt" "$WORK/victim_err.txt"
    fi
  fi
  daemon_alive "$SITE"
  clean_client "$SITE"
  stop_daemon
done

# server.worker_abort specifically must surface as a typed ERROR frame and
# count in the stats.
start_daemon --inject-faults=server.worker_abort=1
RC=0
"$RVPCLIENT" "$WORK/racy.txt" --socket="$SOCK" --window=30 \
  >"$WORK/victim_out.txt" 2>"$WORK/victim_err.txt" || RC=$?
CHECKS=$((CHECKS + 1))
if [ "$RC" -eq 0 ] || ! grep -q "server error:" "$WORK/victim_err.txt"; then
  fail "worker_abort: victim got no ERROR frame (rc=$RC)" \
    "$WORK/victim_out.txt" "$WORK/victim_err.txt"
fi
daemon_alive worker_abort
clean_client worker_abort
stop_daemon
expect_counter server.worker_aborts 1 worker_abort
expect_counter server.sessions_errored 1 worker_abort
expect_run_metadata worker_abort

# --- Inconsistent input: streamed and batch ingest reject alike ---------
# One impossible read, no skip-bad-events: batch detect exits 2 and the
# streamed session ends in an ERROR frame, both with the same diagnostic
# after the location prefix. With skip-bad-events both drop the line and
# agree with each other again.

awk 'NR == 40 { print "read t1 never_written 5 @bad" } { print }' \
  "$WORK/racy.txt" >"$WORK/bad_read.txt"
RC=0
"$RVPREDICT" detect "$WORK/bad_read.txt" --window=30 \
  >/dev/null 2>"$WORK/bad_batch_err.txt" || RC=$?
CHECKS=$((CHECKS + 1))
if [ "$RC" -ne 2 ] || ! grep -q "inconsistent input trace" \
    "$WORK/bad_batch_err.txt"; then
  fail "inconsistent: batch detect did not reject (rc=$RC)" \
    "$WORK/bad_batch_err.txt"
fi
start_daemon
RC=0
"$RVPCLIENT" "$WORK/bad_read.txt" --socket="$SOCK" --window=30 \
  --summary-only >"$WORK/bad_stream_out.txt" \
  2>"$WORK/bad_stream_err.txt" || RC=$?
CHECKS=$((CHECKS + 1))
sed -n 's/.*\(inconsistent input trace.*\)/\1/p' "$WORK/bad_batch_err.txt" \
  >"$WORK/bad_batch.diag"
sed -n 's/.*\(inconsistent input trace.*\)/\1/p' "$WORK/bad_stream_err.txt" \
  >"$WORK/bad_stream.diag"
if [ "$RC" -eq 0 ] || [ -s "$WORK/bad_stream_out.txt" ] || \
   ! grep -q "server error: trace error:" "$WORK/bad_stream_err.txt" || \
   ! cmp -s "$WORK/bad_batch.diag" "$WORK/bad_stream.diag"; then
  fail "inconsistent: streamed session did not fail like batch (rc=$RC)" \
    "$WORK/bad_batch_err.txt" "$WORK/bad_stream_err.txt" \
    "$WORK/bad_stream_out.txt"
fi
"$RVPREDICT" detect "$WORK/bad_read.txt" --window=30 --skip-bad-events \
  >"$WORK/bad_skip_batch.txt" 2>/dev/null || true
"$RVPCLIENT" "$WORK/bad_read.txt" --socket="$SOCK" --window=30 \
  --skip-bad-events --summary-only >"$WORK/bad_skip_stream.txt" \
  2>/dev/null || true
CHECKS=$((CHECKS + 1))
if ! normalize "$WORK/bad_skip_batch.txt" >"$WORK/bad_skip_batch.n" || \
   ! normalize "$WORK/bad_skip_stream.txt" >"$WORK/bad_skip_stream.n" || \
   ! cmp -s "$WORK/bad_skip_batch.n" "$WORK/bad_skip_stream.n" || \
   ! cmp -s "$WORK/batch.n" "$WORK/bad_skip_batch.n"; then
  fail "inconsistent: skip-bad-events summaries differ" \
    "$WORK/batch.txt" "$WORK/bad_skip_batch.txt" "$WORK/bad_skip_stream.txt"
fi
daemon_alive inconsistent
clean_client inconsistent
stop_daemon
expect_counter server.sessions_errored 1 inconsistent

# --- Client stall: --stall-timeout reaps the session ---------------------

start_daemon --stall-timeout=1
RC=0
"$RVPCLIENT" "$WORK/racy.txt" --socket="$SOCK" --window=30 \
  --inject-faults=net.client_stall=1 --stall-ms=4000 --chunk=512 \
  >"$WORK/stall_out.txt" 2>"$WORK/stall_err.txt" || RC=$?
CHECKS=$((CHECKS + 1))
if [ "$RC" -eq 0 ]; then
  fail "client_stall: stalled client was not reaped" \
    "$WORK/stall_out.txt" "$WORK/stall_err.txt"
fi
daemon_alive client_stall
clean_client client_stall
stop_daemon
expect_counter server.stall_timeouts 1 client_stall

# --- Load shedding: degraded windows are visible and counted -------------
# jobs=1 with an instant upload queues windows behind the first analysis,
# so a threshold of 1 forces the later windows onto the WCP tier.

start_daemon --jobs=1 --degrade-threshold=1
"$RVPCLIENT" "$WORK/racy.txt" --socket="$SOCK" --window=30 \
  >"$WORK/degraded_out.txt" 2>/dev/null || true
CHECKS=$((CHECKS + 1))
if ! grep -q '^window [0-9]* degraded' "$WORK/degraded_out.txt"; then
  fail "degrade: no degraded REPORT frame" "$WORK/degraded_out.txt"
fi
stop_daemon
expect_counter server.degraded_windows 1 degrade
expect_counter server.windows_analyzed 1 degrade

# --- Backpressure: a tiny watermark pauses reads and is counted ----------

start_daemon --high-watermark=2048 --low-watermark=512 \
  --max-queued-windows=1
"$RVPCLIENT" "$WORK/racy.txt" --socket="$SOCK" --window=10 --chunk=256 \
  --summary-only >/dev/null 2>&1 || true
stop_daemon
expect_counter server.backpressure_events 1 backpressure

# --- Byte watermark while a worker is in flight --------------------------
# server.worker_stall pins the first window's analysis for 600ms while the
# client trickles the rest of the trace; the inbox must cross the byte
# watermark and pause reads (with the window budget set far out of reach),
# and the summary must still be byte-identical to batch afterwards.

start_daemon --jobs=1 --inject-faults=server.worker_stall=1 \
  --high-watermark=512 --low-watermark=128 --max-queued-windows=100000
RC=0
"$RVPCLIENT" "$WORK/racy.txt" --socket="$SOCK" --window=30 --chunk=128 \
  --delay-ms=10 --summary-only >"$WORK/inflight_out.txt" \
  2>"$WORK/inflight_err.txt" || RC=$?
CHECKS=$((CHECKS + 1))
if [ "$RC" -ne 0 ]; then
  fail "inflight-backpressure: client exited $RC" "$WORK/inflight_err.txt"
elif ! normalize "$WORK/inflight_out.txt" >"$WORK/inflight_out.n" || \
     ! cmp -s "$WORK/batch.n" "$WORK/inflight_out.n"; then
  fail "inflight-backpressure: summary differs from batch" \
    "$WORK/batch.txt" "$WORK/inflight_out.txt"
fi
stop_daemon
expect_counter server.backpressure_events 1 inflight-backpressure

# --- Bounded drain: a wedged worker cannot hold SIGTERM open forever -----
# Every window's analysis stalls 600ms (~12 windows queue up, several
# seconds of work); with --drain-timeout=1 the daemon must still exit 0
# about a second after SIGTERM, dropping what is left and counting the
# forced drain.

start_daemon --jobs=1 --inject-faults=server.worker_stall=1+ \
  --drain-timeout=1
"$RVPCLIENT" "$WORK/racy.txt" --socket="$SOCK" --window=5 \
  --summary-only >/dev/null 2>&1 &
SLOW_PID=$!
sleep 0.3
DRAIN_T0=$(date +%s)
stop_daemon
DRAIN_T1=$(date +%s)
wait "$SLOW_PID" 2>/dev/null || true
CHECKS=$((CHECKS + 1))
if [ $((DRAIN_T1 - DRAIN_T0)) -gt 3 ]; then
  fail "forced-drain: SIGTERM took $((DRAIN_T1 - DRAIN_T0))s (wanted <= 3)"
fi
expect_counter server.drain_forced 1 forced-drain

# --- Session budget: the N+1th client is refused -------------------------

start_daemon --max-sessions=1
# Park one slow session (~2s of trickled upload), then try a second one.
"$RVPCLIENT" "$WORK/racy.txt" --socket="$SOCK" --window=30 --chunk=64 \
  --delay-ms=40 --summary-only >/dev/null 2>&1 &
SLOW_PID=$!
sleep 0.3
RC=0
"$RVPCLIENT" "$WORK/racy.txt" --socket="$SOCK" --window=30 \
  --summary-only >"$WORK/refused_out.txt" 2>"$WORK/refused_err.txt" || RC=$?
CHECKS=$((CHECKS + 1))
if [ "$RC" -eq 0 ] || \
   ! grep -q "session budget exhausted" "$WORK/refused_err.txt"; then
  fail "budget: second client was not refused (rc=$RC)" \
    "$WORK/refused_out.txt" "$WORK/refused_err.txt"
fi
RC=0
wait "$SLOW_PID" || RC=$?
CHECKS=$((CHECKS + 1))
if [ "$RC" -ne 0 ]; then
  fail "budget: the admitted slow session failed (rc=$RC)"
fi
stop_daemon
expect_counter server.sessions_refused 1 budget

# --- Crash recovery: a replayed session resumes from its checkpoint ------

start_daemon --checkpoint-root="$WORK/ckpt"
RC=0
"$RVPCLIENT" "$WORK/racy.txt" --socket="$SOCK" --window=30 --ckpt=drill \
  --summary-only >"$WORK/first_out.txt" 2>/dev/null || RC=$?
CHECKS=$((CHECKS + 1))
[ "$RC" -ne 0 ] && fail "recovery: first checkpointed session failed"
stop_daemon

start_daemon --checkpoint-root="$WORK/ckpt"
RC=0
"$RVPCLIENT" "$WORK/racy.txt" --socket="$SOCK" --window=30 --ckpt=drill \
  --summary-only >"$WORK/second_out.txt" 2>/dev/null || RC=$?
CHECKS=$((CHECKS + 1))
if [ "$RC" -ne 0 ]; then
  fail "recovery: replayed session failed"
elif ! normalize "$WORK/second_out.txt" >"$WORK/second_out.n" || \
     ! cmp -s "$WORK/batch.n" "$WORK/second_out.n"; then
  fail "recovery: resumed summary differs from batch" \
    "$WORK/batch.txt" "$WORK/second_out.txt"
fi
stop_daemon
expect_counter server.sessions_recovered 1 recovery

# A different analysis under the same key must be refused, not resumed.
start_daemon --checkpoint-root="$WORK/ckpt"
RC=0
"$RVPCLIENT" "$WORK/racy.txt" --socket="$SOCK" --window=50 --ckpt=drill \
  --summary-only >/dev/null 2>"$WORK/mismatch_err.txt" || RC=$?
CHECKS=$((CHECKS + 1))
if [ "$RC" -eq 0 ] || \
   ! grep -q "different analysis" "$WORK/mismatch_err.txt"; then
  fail "recovery: fingerprint mismatch not refused (rc=$RC)" \
    "$WORK/mismatch_err.txt"
fi
daemon_alive recovery-mismatch
clean_client recovery-mismatch
stop_daemon

# --- Usage errors exit 2 before any listener binds -----------------------

RC=0
"$RVPREDICTD" --socket="$WORK/never.sock" --technique=siad \
  2>"$WORK/tech_err.txt" || RC=$?
CHECKS=$((CHECKS + 1))
if [ "$RC" -ne 2 ] || ! grep -q -- "--technique must be" "$WORK/tech_err.txt"
then
  fail "usage: bad --technique not refused (rc=$RC)" "$WORK/tech_err.txt"
fi

# A negative budget or timeout must not wrap into an unbounded one, and a
# session default goes through the same range checks as the batch CLI.
for FLAG in --max-queued-windows=-1 --high-watermark=-5 --low-watermark=-1 \
            --degrade-threshold=-1 --window-deadline=-1 --idle-timeout=-1 \
            --stall-timeout=-1 --drain-timeout=-1 --window=4294967297 \
            --budget=0; do
  # A daemon that accepts the flag starts serving: stop it after 5 s.
  "$RVPREDICTD" --socket="$WORK/never.sock" "$FLAG" \
    2>"$WORK/flag_err.txt" &
  FLAG_PID=$!
  I=0
  while kill -0 "$FLAG_PID" 2>/dev/null && [ "$I" -lt 50 ]; do
    sleep 0.1
    I=$((I + 1))
  done
  kill "$FLAG_PID" 2>/dev/null || true
  RC=0
  wait "$FLAG_PID" || RC=$?
  CHECKS=$((CHECKS + 1))
  if [ "$RC" -ne 2 ] || ! grep -q -- "${FLAG%%=*}" "$WORK/flag_err.txt"; then
    fail "usage: $FLAG not refused (rc=$RC)" "$WORK/flag_err.txt"
  fi
done

# --- A live socket path is never stolen ----------------------------------
# A second daemon on the same path must refuse to start, leave the first
# one reachable, and leave its socket file in place on exit.

start_daemon
RC=0
"$RVPREDICTD" --socket="$SOCK" 2>"$WORK/steal_err.txt" || RC=$?
CHECKS=$((CHECKS + 1))
if [ "$RC" -ne 2 ] || \
   ! grep -q "already served by a running daemon" "$WORK/steal_err.txt"; then
  fail "steal: second daemon not refused (rc=$RC)" "$WORK/steal_err.txt"
fi
daemon_alive steal
clean_client steal
stop_daemon

# --- TCP-only mode: --port with no --socket serves end to end ------------

TCP_OK=0
for TCP_PORT in $((20000 + $$ % 20000)) $((25000 + $$ % 10000)) 28413; do
  "$RVPREDICTD" --port="$TCP_PORT" --stats-json="$WORK/stats.json" \
    2>"$WORK/daemon.err" &
  DAEMON_PID=$!
  I=0
  while ! grep -q "listening on 127.0.0.1:$TCP_PORT" "$WORK/daemon.err" \
      2>/dev/null; do
    I=$((I + 1))
    if [ "$I" -gt 50 ]; then break; fi
    kill -0 "$DAEMON_PID" 2>/dev/null || break
    sleep 0.1
  done
  if kill -0 "$DAEMON_PID" 2>/dev/null; then
    TCP_OK=1
    break
  fi
  wait "$DAEMON_PID" 2>/dev/null || true # port collision: try the next
  DAEMON_PID=""
done
CHECKS=$((CHECKS + 1))
if [ "$TCP_OK" -ne 1 ]; then
  fail "tcp-only: daemon never came up on a TCP port" "$WORK/daemon.err"
else
  RC=0
  "$RVPCLIENT" "$WORK/racy.txt" --port="$TCP_PORT" --window=30 \
    --summary-only >"$WORK/tcp_out.txt" 2>"$WORK/tcp_err.txt" || RC=$?
  CHECKS=$((CHECKS + 1))
  if [ "$RC" -ne 0 ]; then
    fail "tcp-only: client exited $RC" "$WORK/tcp_err.txt"
  elif ! normalize "$WORK/tcp_out.txt" >"$WORK/tcp_out.n" || \
       ! cmp -s "$WORK/batch.n" "$WORK/tcp_out.n"; then
    fail "tcp-only: summary differs from batch" \
      "$WORK/batch.txt" "$WORK/tcp_out.txt"
  fi
  stop_daemon
fi

# --- SIGTERM mid-session: drain still finishes the open session ----------

start_daemon
"$RVPCLIENT" "$WORK/racy.txt" --socket="$SOCK" --window=30 --chunk=64 \
  --delay-ms=40 --summary-only >"$WORK/drain_out.txt" 2>/dev/null &
SLOW_PID=$!
sleep 0.3
stop_daemon
RC=0
wait "$SLOW_PID" || RC=$?
CHECKS=$((CHECKS + 1))
# The drained session analyzed whatever had arrived by the SIGTERM; it
# must still have received a summary (any prefix's report ends in
# "race(s)"), not a torn socket.
if [ "$RC" -ne 0 ] || ! grep -q "race(s)" "$WORK/drain_out.txt"; then
  fail "drain: mid-upload session got no summary (rc=$RC)" \
    "$WORK/drain_out.txt"
fi

echo "check_server: $CHECKS checks, $FAILURES failure(s)"
[ "$FAILURES" -eq 0 ]
