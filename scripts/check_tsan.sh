#!/bin/sh
# Builds the thread-sanitized preset (-DRV_SANITIZE=thread) and runs the
# concurrency-sensitive tests under it: the thread-pool and stats unit
# tests, the parallel-vs-sequential detector comparisons, the
# byte-identical-output determinism check, the cone-slicing tests, the
# read-skeleton test whose four threads fill one window's on-demand
# read-consistency skeletons at once, the in-process mode-equivalence
# sweep (whose --jobs=4 rows read and populate the shared skeleton cache
# concurrently, for computed cones and whole-window ones alike —
# docs/ENCODER.md) and the window-driver goldens (whose --jobs=4 rows
# build witnesses concurrently: a fresh encoder per witness on the shared
# window encoding, with thread-local cone scratch). Any data race the
# pool, the shared per-window encoding (its read skeletons included), or
# the skeleton cache introduces fails this script. The daemon drills
# stream race, atomicity and deadlock sessions through a --jobs=4
# rvpredictd: each session's live window-driver session moves between
# pool threads from one window to the next, and --degrade-threshold=1
# sheds windows to the vc tier and back. The chunked-stream tests
# (StreamDetector, the generative IngestTest, ServerSession) and a daemon
# drill with HELLO skip-bad-events=1 cover ingest: the I/O thread reads
# each DATA chunk's lines into the session's trace, updating its indices
# as each event lands, and a pool worker reads them to step the window.
#
# Usage: scripts/check_tsan.sh [build-dir]   (default: build-tsan)
set -eu

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DRV_SANITIZE=thread
cmake --build "$BUILD_DIR" -j "$(nproc 2>/dev/null || echo 2)" \
  --target rvp_tests rvpredict rvpredictd rvpclient

ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -j "$(nproc 2>/dev/null || echo 2)" \
  -R 'ThreadPool|ParallelDetect|Stats\.Concurrent|DetectDeterminism|RaceEncoderCone|ReadSkeleton\.Concurrent|ModeEquivalence|DriverGolden|StreamDetector|IngestTest|ServerSession'

# The standalone runs below keep telemetry and the trace-event sink on:
# workers fill each decision's record (encode stats, formula size, witness
# resolve) and the main thread folds it into the run in candidate order,
# renders its cop event and ledger entry, and flushes once at the end.
EVENTS="$BUILD_DIR/tsan-trace-events.jsonl"

# The hybrid WCP tier under parallel solving: the vector-clock index is
# built once and read by every worker, and the per-COP WcpPruned/WcpRacy
# verdicts are mirrored back from the worker tasks (docs/TIERS.md). Exit
# 1 just means races were reported; >=2 (incl. TSan's abort) fails.
for w in tests/golden/prune_workload.rv tests/golden/stats_workload.rv; do
  rc=0
  "$BUILD_DIR"/tools/rvpredict detect "$w" --seed=1 --schedule=rr \
    --technique=rv --tier=hybrid --jobs=4 --stats \
    --trace-events="$EVENTS" >/dev/null || rc=$?
  if [ "$rc" -gt 1 ]; then
    echo "check_tsan: --tier=hybrid --jobs=4 on $w exited $rc" >&2
    exit 1
  fi
done

# Witnessed atomicity and deadlock runs at --jobs=4: every property's
# witness encodes run concurrently on the pool workers.
for p in atomicity deadlock; do
  rc=0
  "$BUILD_DIR"/tools/rvpredict detect tests/golden/props_workload.rv \
    --seed=1 --schedule=rr --window=24 --property="$p" --witness=true \
    --jobs=4 --stats --trace-events="$EVENTS" >/dev/null || rc=$?
  if [ "$rc" -gt 1 ]; then
    echo "check_tsan: --property=$p --jobs=4 exited $rc" >&2
    exit 1
  fi
done

# The daemon under concurrent ingest: clients stream into a --jobs=4
# rvpredictd at once, exercising the I/O-thread/worker handoff (Inbox
# swap, completion deque, self-pipe wake), the shared ThreadPool and the
# per-session live driver sessions under TSan. Every drain must exit 0.
SOCK="$BUILD_DIR/tsan-server.sock"
RACE_TRACE="$BUILD_DIR/tsan-server-trace.txt"
PROPS_TRACE="$BUILD_DIR/tsan-props-trace.txt"
"$BUILD_DIR"/tools/rvpredict record bench:bufwriter --out="$RACE_TRACE" \
  >/dev/null
"$BUILD_DIR"/tools/rvpredict record tests/golden/props_workload.rv \
  --seed=1 --schedule=rr --out="$PROPS_TRACE" >/dev/null

# Starts rvpredictd on $SOCK with the given extra flags.
start_daemon() {
  rm -f "$SOCK"
  "$BUILD_DIR"/tools/rvpredictd --socket="$SOCK" --jobs=4 "$@" &
  SERVER_PID=$!
  i=0
  while [ ! -S "$SOCK" ]; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && { echo "check_tsan: daemon never bound" >&2; exit 1; }
    sleep 0.1
  done
}

# SIGTERM drains the daemon; anything but exit 0 fails the script.
stop_daemon() {
  kill -TERM "$SERVER_PID"
  rc=0
  wait "$SERVER_PID" || rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "check_tsan: rvpredictd drain exited $rc under TSan ($1)" >&2
    exit 1
  fi
}

start_daemon
"$BUILD_DIR"/tools/rvpclient "$RACE_TRACE" --socket="$SOCK" --window=30 \
  --connections=4 --summary-only >/dev/null
for p in atomicity deadlock; do
  "$BUILD_DIR"/tools/rvpclient "$PROPS_TRACE" --socket="$SOCK" \
    --property="$p" --window=24 --connections=2 --summary-only >/dev/null
done
stop_daemon "race, atomicity and deadlock sessions"

# Skip-bad ingest: every other line of the trace is preceded by an
# impossible read, sent in small chunks, so the I/O thread reads and drops
# lines between the worker's window steps.
BAD_TRACE="$BUILD_DIR/tsan-server-bad.txt"
awk 'NR % 2 == 0 { print "read ghost ghost_v 7 @bad" } { print }' \
  "$RACE_TRACE" >"$BAD_TRACE"
start_daemon
"$BUILD_DIR"/tools/rvpclient "$BAD_TRACE" --socket="$SOCK" --window=10 \
  --skip-bad-events --chunk=97 --connections=2 --summary-only >/dev/null
stop_daemon "skip-bad-events=1"

# Load shedding: with more than one window pending, race windows are
# answered by the vc tier, and the same live session switches back to
# its own tier for the next window.
start_daemon --degrade-threshold=1
"$BUILD_DIR"/tools/rvpclient "$RACE_TRACE" --socket="$SOCK" --window=30 \
  --connections=2 --summary-only >/dev/null
stop_daemon "--degrade-threshold=1"

echo "check_tsan: all thread-sanitized checks passed"
