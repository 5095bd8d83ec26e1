#!/bin/sh
# Fault matrix (docs/ROBUSTNESS.md): injects every fault site into every
# detector, sequentially and with --jobs=4, and checks the pipeline's
# degradation contract instead of crashing:
#
#   * exit codes stay within the documented taxonomy (0 clean, 1 findings,
#     2 usage, 3 degraded/unknowns) — never a crash, signal, or garbage
#     code;
#   * solver-layer faults may move findings into the `unknown` section but
#     must never invent findings: with every solver answer suppressed, the
#     run reports zero races/violations/deadlocks;
#   * trace-layer faults surface as parse diagnostics (exit 2), not
#     crashes;
#   * detect.abort without --checkpoint has no kill site, so the run
#     completes normally.
#
# Usage: scripts/check_faults.sh <path-to-rvpredict> [workload.rv]
set -eu

RVPREDICT="${1:?usage: check_faults.sh <rvpredict> [workload.rv]}"
cd "$(dirname "$0")/.."
WORKLOAD="${2:-tests/golden/stats_workload.rv}"

FAILURES=0
CHECKS=0

# run <expected-codes> <label> <args...>: expected-codes is a
# comma-separated list of acceptable exit codes.
run() {
  EXPECT="$1"; LABEL="$2"; shift 2
  set +e
  OUT=$("$RVPREDICT" "$@" 2>&1)
  RC=$?
  set -e
  CHECKS=$((CHECKS + 1))
  case ",$EXPECT," in
    *",$RC,"*) ;;
    *)
      echo "FAIL [$LABEL]: exit $RC (wanted one of: $EXPECT)"
      echo "$OUT" | sed 's/^/    /'
      FAILURES=$((FAILURES + 1))
      ;;
  esac
}

# expect_quiet <label> <args...>: the run must not claim any finding
# (solver outage turns maybe-findings into unknowns, never findings).
expect_quiet() {
  LABEL="$1"; shift
  OUT=$("$RVPREDICT" "$@" 2>&1) || true
  CHECKS=$((CHECKS + 1))
  if echo "$OUT" | grep -Eq '^(RV|Said|CP|HB): [1-9]| [1-9][0-9]* violation| [1-9][0-9]* potential deadlock'; then
    echo "FAIL [$LABEL]: degraded run claimed findings"
    echo "$OUT" | sed 's/^/    /'
    FAILURES=$((FAILURES + 1))
  fi
}

SOLVER_SITES="solver.timeout session.corrupt satdb.alloc"
TRACE_SITES="trace.short_read trace.garble"

for PROPERTY in race atomicity deadlock; do
  for JOBS in 1 4; do
    BASE="detect $WORKLOAD --schedule=rr --seed=1
          --property=$PROPERTY --jobs=$JOBS --window=5"
    # Solver faults: the run finishes with a taxonomy exit code, and a
    # total outage never invents findings.
    for SITE in $SOLVER_SITES; do
      run 0,1,3 "$PROPERTY/jobs=$JOBS/$SITE" \
        $BASE --inject-faults="$SITE"
    done
    expect_quiet "$PROPERTY/jobs=$JOBS/solver-outage" \
      $BASE --inject-faults=solver.timeout,session.corrupt,satdb.alloc
    # Trace faults corrupt the recorded program text: a parse diagnostic
    # (exit 2) or — if the corruption lands in dead bytes — a normal run.
    for SITE in $TRACE_SITES; do
      run 0,1,2,3 "$PROPERTY/jobs=$JOBS/$SITE" \
        $BASE --inject-faults="$SITE"
    done
    # detect.abort only has a kill site when checkpointing is on; without
    # it the flag is inert and the run completes.
    run 0,1 "$PROPERTY/jobs=$JOBS/detect.abort-inert" \
      $BASE --inject-faults=detect.abort
  done
done

echo "check_faults: $CHECKS checks, $FAILURES failure(s)"
[ "$FAILURES" -eq 0 ]
