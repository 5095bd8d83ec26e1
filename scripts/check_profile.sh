#!/bin/sh
# Smoke check for `rvpredict detect --profile` (docs/OBSERVABILITY.md):
# the emitted Chrome/Perfetto trace must
#
#   * be one valid JSON document with a non-empty traceEvents array,
#   * name every referenced tid through a thread_name metadata event,
#   * keep non-metadata timestamps monotone (the writer sorts spans by
#     start time so Perfetto never sees out-of-order events),
#   * give every "X" span a non-negative integer duration.
#
# Runs sequentially and with --jobs=4 (worker tracks, whose encodes share
# the window's skeleton cache), and checks that --profile does not change
# the analysis report itself. Three more runs (an injected session
# corruption, an unavailable z3, a checkpointed run) check that the
# resilience instants count exactly what the same run's --stats-json
# counters count.
#
# Usage: scripts/check_profile.sh <path-to-rvpredict> [workload.rv]
set -eu

RVPREDICT="${1:?usage: check_profile.sh <rvpredict> [workload.rv]}"
cd "$(dirname "$0")/.."
WORKLOAD="${2:-tests/golden/stats_workload.rv}"

TMPDIR_PROFILE=$(mktemp -d)
trap 'rm -rf "$TMPDIR_PROFILE"' EXIT

FAILURES=0
CHECKS=0

# run_profiled <label> <profile-out> <args...>: exit must stay in the
# findings taxonomy (0 or 1) and the profile file must appear.
run_profiled() {
  LABEL="$1"; OUT="$2"; shift 2
  set +e
  "$RVPREDICT" detect "$WORKLOAD" --seed=1 --schedule=rr \
      --profile="$OUT" "$@" > "$TMPDIR_PROFILE/$LABEL.stdout" 2>&1
  RC=$?
  set -e
  CHECKS=$((CHECKS + 1))
  if [ "$RC" -gt 1 ]; then
    echo "FAIL [$LABEL]: exit $RC"
    sed 's/^/    /' "$TMPDIR_PROFILE/$LABEL.stdout"
    FAILURES=$((FAILURES + 1))
    return
  fi
  if [ ! -s "$OUT" ]; then
    echo "FAIL [$LABEL]: profile '$OUT' missing or empty"
    FAILURES=$((FAILURES + 1))
    return
  fi
  CHECKS=$((CHECKS + 1))
  if ! python3 scripts/check_profile.py "$OUT"; then
    echo "FAIL [$LABEL]: profile '$OUT' failed validation"
    FAILURES=$((FAILURES + 1))
  fi
}

run_profiled seq  "$TMPDIR_PROFILE/seq.trace.json"  --jobs=1
run_profiled par  "$TMPDIR_PROFILE/par.trace.json"  --jobs=4
run_profiled stats "$TMPDIR_PROFILE/stats.trace.json" --jobs=1 --stats

# check_instants <label> <instant>: every instant count of the run equals
# its counter in the run's --stats-json, and <instant> occurs at all.
check_instants() {
  LABEL="$1"; WANT="$2"
  CHECKS=$((CHECKS + 1))
  if ! python3 -c "
import collections, json, sys
trace = json.load(open('$TMPDIR_PROFILE/$LABEL.trace.json'))
got = collections.Counter(e['name'] for e in trace['traceEvents']
                          if e.get('ph') == 'i')
c = json.load(open('$TMPDIR_PROFILE/$LABEL.stats.json'))['metrics']['counters']
want = {
    'solver-retry': c.get('solver.retries', 0),
    'session-quarantine': c.get('solver.degraded_sessions', 0),
    'backend-fallback': c.get('solver.backend_fallbacks', 0),
    'checkpoint-save': c['detect.windows'] - c['detect.resumed_windows']
                       if '$LABEL' == 'checkpoint' else 0,
}
bad = {n: (got[n], w) for n, w in want.items() if got[n] != w}
bad.update({n: (k, 0) for n, k in got.items() if n not in want})
if bad or not got['$WANT']:
    print('instant (got, counter): %r, %s seen %d times'
          % (bad, '$WANT', got['$WANT']))
    sys.exit(1)
"; then
    echo "FAIL [$LABEL]: profile instants disagree with --stats-json"
    FAILURES=$((FAILURES + 1))
  fi
}

run_profiled quarantine "$TMPDIR_PROFILE/quarantine.trace.json" --jobs=1 \
    --tier=smt --inject-faults=session.corrupt \
    --stats-json="$TMPDIR_PROFILE/quarantine.stats.json"
check_instants quarantine session-quarantine
run_profiled fallback "$TMPDIR_PROFILE/fallback.trace.json" --jobs=1 \
    --tier=smt --solver=z3 --inject-faults=z3.unavailable \
    --stats-json="$TMPDIR_PROFILE/fallback.stats.json"
check_instants fallback backend-fallback
run_profiled checkpoint "$TMPDIR_PROFILE/checkpoint.trace.json" --jobs=1 \
    --window=24 --checkpoint="$TMPDIR_PROFILE/ckpt" \
    --stats-json="$TMPDIR_PROFILE/checkpoint.stats.json"
check_instants checkpoint checkpoint-save

# --jobs=4 must produce named worker tracks beyond the main thread.
CHECKS=$((CHECKS + 1))
if ! python3 -c "
import json, sys
d = json.load(open('$TMPDIR_PROFILE/par.trace.json'))
names = {e['args']['name'] for e in d['traceEvents'] if e.get('ph') == 'M'}
sys.exit(0 if any(n.startswith('worker-') for n in names) else 1)
"; then
  echo "FAIL [workers]: --jobs=4 profile has no worker-* thread tracks"
  FAILURES=$((FAILURES + 1))
fi

# Profiling must not perturb the report: strip timings and compare against
# an unprofiled run.
CHECKS=$((CHECKS + 1))
"$RVPREDICT" detect "$WORKLOAD" --seed=1 --schedule=rr --jobs=1 \
    > "$TMPDIR_PROFILE/plain.stdout" 2>&1 || true
sed 's/ in [0-9.]*s//' "$TMPDIR_PROFILE/plain.stdout" > "$TMPDIR_PROFILE/a"
sed 's/ in [0-9.]*s//' "$TMPDIR_PROFILE/seq.stdout" > "$TMPDIR_PROFILE/b"
if ! cmp -s "$TMPDIR_PROFILE/a" "$TMPDIR_PROFILE/b"; then
  echo "FAIL [report]: --profile changed the detection report"
  diff "$TMPDIR_PROFILE/a" "$TMPDIR_PROFILE/b" | sed 's/^/    /' || true
  FAILURES=$((FAILURES + 1))
fi

if [ "$FAILURES" -ne 0 ]; then
  echo "check_profile: $FAILURES of $CHECKS checks failed"
  exit 1
fi
echo "check_profile: all $CHECKS checks passed"
