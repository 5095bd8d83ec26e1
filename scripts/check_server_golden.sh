#!/bin/sh
# ServerGolden (docs/SERVER.md): the daemon's streamed SUMMARY must be
# byte-identical (timing normalized) to `rvpredict detect` on the same
# trace, across the solver-backed techniques and daemon pool sizes:
#
#   * technique rv and said, daemon --jobs=1 and --jobs=4;
#   * a racy multi-window trace and a clean one;
#   * the atomicity and deadlock properties on the multi-window property
#     workload (tests/golden/props_workload.rv), at both pool sizes;
#   * four *concurrent* sessions, each byte-identical to batch;
#   * REPORT frames arrive once per analyzed window.
#
# Usage: scripts/check_server_golden.sh <rvpredict> <rvpredictd> <rvpclient>
set -eu

RVPREDICT="${1:?usage: check_server_golden.sh <rvpredict> <rvpredictd> <rvpclient>}"
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

# wait_for_socket <path>: the daemon binds asynchronously after exec.
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
  "$RVPREDICTD" --socket="$SOCK" "$@" 2>"$WORK/daemon.err" &
  DAEMON_PID=$!
  wait_for_socket "$SOCK"
}

stop_daemon() {
  kill -TERM "$DAEMON_PID"
  RC=0
  wait "$DAEMON_PID" || RC=$?
  DAEMON_PID=""
  CHECKS=$((CHECKS + 1))
  if [ "$RC" -ne 0 ]; then
    echo "FAIL [drain]: daemon exited $RC after SIGTERM"
    sed 's/^/    /' "$WORK/daemon.err"
    FAILURES=$((FAILURES + 1))
  fi
}

# compare_session <label> <trace> <flags...>: one streamed session's
# SUMMARY against the batch run of the same trace and flags.
compare_session() {
  LABEL="$1"
  TRACE="$2"
  shift 2
  "$RVPREDICT" detect "$TRACE" "$@" >"$WORK/batch.txt" || true
  RC=0
  "$RVPCLIENT" "$TRACE" --socket="$SOCK" "$@" --summary-only \
    >"$WORK/stream.txt" 2>"$WORK/client.err" || RC=$?
  CHECKS=$((CHECKS + 1))
  if [ "$RC" -ne 0 ]; then
    fail "$LABEL: client exited $RC" "$WORK/client.err"
  elif ! normalize "$WORK/batch.txt" >"$WORK/batch.n" || \
       ! normalize "$WORK/stream.txt" >"$WORK/stream.n" || \
       ! cmp -s "$WORK/batch.n" "$WORK/stream.n"; then
    fail "$LABEL: summary differs from batch" \
      "$WORK/batch.txt" "$WORK/stream.txt"
  fi
}

# Fixed workloads, recorded once: bufwriter races across windows,
# mergesort is clean end to end, and the property workload has atomicity
# violations and a deadlock in different windows.
"$RVPREDICT" record bench:bufwriter --out="$WORK/racy.txt" >/dev/null
"$RVPREDICT" record bench:mergesort --out="$WORK/clean.txt" >/dev/null
"$RVPREDICT" record tests/golden/props_workload.rv --schedule=rr \
  --out="$WORK/props.txt" >/dev/null

WINDOW=30

for JOBS in 1 4; do
  start_daemon --jobs="$JOBS"
  for TECH in rv said; do
    for TRACE in racy clean; do
      compare_session "jobs=$JOBS/$TECH/$TRACE" "$WORK/$TRACE.txt" \
        --technique="$TECH" --window="$WINDOW"
    done
  done
  for PROPERTY in atomicity deadlock; do
    compare_session "jobs=$JOBS/$PROPERTY" "$WORK/props.txt" \
      --property="$PROPERTY" --window=24
  done

  # One REPORT frame per analyzed window: bufwriter has 85 events, so
  # window=30 makes 3 windows.
  "$RVPCLIENT" "$WORK/racy.txt" --socket="$SOCK" --window="$WINDOW" \
    >"$WORK/full.txt" 2>/dev/null || true
  CHECKS=$((CHECKS + 1))
  REPORTS=$(grep -c '^window ' "$WORK/full.txt" || true)
  if [ "$REPORTS" -ne 3 ]; then
    fail "jobs=$JOBS: expected 3 REPORT frames, got $REPORTS" "$WORK/full.txt"
  fi

  # Four concurrent sessions, each against its own expectation.
  "$RVPREDICT" detect "$WORK/racy.txt" --window="$WINDOW" \
    >"$WORK/batch.txt" || true
  normalize "$WORK/batch.txt" >"$WORK/batch.n"
  for I in 1 2 3 4; do
    "$RVPCLIENT" "$WORK/racy.txt" --socket="$SOCK" --window="$WINDOW" \
      --summary-only >"$WORK/conc$I.txt" 2>/dev/null &
    eval "CPID$I=\$!"
  done
  for I in 1 2 3 4; do
    RC=0
    eval "wait \$CPID$I" || RC=$?
    CHECKS=$((CHECKS + 1))
    if [ "$RC" -ne 0 ]; then
      fail "jobs=$JOBS/concurrent/$I: client exited $RC"
    elif ! normalize "$WORK/conc$I.txt" >"$WORK/conc$I.n" || \
         ! cmp -s "$WORK/batch.n" "$WORK/conc$I.n"; then
      fail "jobs=$JOBS/concurrent/$I: summary differs" \
        "$WORK/batch.txt" "$WORK/conc$I.txt"
    fi
  done

  stop_daemon
done

echo "check_server_golden: $CHECKS checks, $FAILURES failure(s)"
[ "$FAILURES" -eq 0 ]
