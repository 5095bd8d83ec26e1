# Robustness golden checks (docs/ROBUSTNESS.md): corrupt-trace diagnostics
# carry file:line:col and the offending token, --skip-bad-events counts and
# skips exactly the bad lines, CLI misuse exits 2 with a diagnostic (for
# detect, record and replay alike), and the documented exit-code taxonomy
# (0 clean / 1 findings / 3 unknowns) holds end to end. Invoked by CTest as
#   cmake -DRVPREDICT=<tool> -DGOLDEN_DIR=<dir> -P RobustGolden.cmake

if(NOT DEFINED RVPREDICT OR NOT DEFINED GOLDEN_DIR)
  message(FATAL_ERROR "usage: cmake -DRVPREDICT=... -DGOLDEN_DIR=... -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

# Runs rvpredict with ARGS (a ;-list); leaves RC / STDOUT / STDERR.
function(run_tool)
  execute_process(
    COMMAND "${RVPREDICT}" ${ARGN}
    RESULT_VARIABLE RC
    OUTPUT_VARIABLE STDOUT
    ERROR_VARIABLE STDERR)
  set(RC "${RC}" PARENT_SCOPE)
  set(STDOUT "${STDOUT}" PARENT_SCOPE)
  set(STDERR "${STDERR}" PARENT_SCOPE)
endfunction()

function(expect_rc WANT LABEL)
  if(NOT RC EQUAL ${WANT})
    message(FATAL_ERROR "${LABEL}: expected exit ${WANT}, got ${RC}\n"
            "stdout:\n${STDOUT}\nstderr:\n${STDERR}")
  endif()
endfunction()

function(expect_stderr NEEDLE LABEL)
  string(FIND "${STDERR}" "${NEEDLE}" POS)
  if(POS EQUAL -1)
    message(FATAL_ERROR "${LABEL}: stderr missing '${NEEDLE}':\n${STDERR}")
  endif()
endfunction()

# --- Parse diagnostics: file:line:col plus the offending token ----------

run_tool(detect "${GOLDEN_DIR}/corrupt_kind.txt")
expect_rc(2 "strict parse of corrupt_kind.txt")
expect_stderr("corrupt_kind.txt:3:1: unknown event kind 'frobnicate'"
              "unknown-kind diagnostic")
expect_stderr("(offending token 'frobnicate')" "unknown-kind token")

run_tool(detect "${GOLDEN_DIR}/corrupt_value.txt")
expect_rc(2 "strict parse of corrupt_value.txt")
expect_stderr("corrupt_value.txt:1:12: malformed value" "bad-value diagnostic")
expect_stderr("(offending token 'banana')" "bad-value token")

# --- --skip-bad-events: count, skip, and match the cleaned trace --------

run_tool(detect "${GOLDEN_DIR}/corrupt_kind.txt" --skip-bad-events=true)
expect_rc(1 "detect with --skip-bad-events (the surviving pair races)")
expect_stderr("skipped 2 malformed or inconsistent event line(s)"
              "skip counter note")
string(REGEX REPLACE " in [0-9.]+s" "" SKIPPED_OUT "${STDOUT}")

run_tool(detect "${GOLDEN_DIR}/corrupt_kind_cleaned.txt")
expect_rc(1 "detect on the pre-cleaned trace")
string(REGEX REPLACE " in [0-9.]+s" "" CLEANED_OUT "${STDOUT}")
if(NOT SKIPPED_OUT STREQUAL CLEANED_OUT)
  message(FATAL_ERROR "--skip-bad-events diverged from the cleaned trace:\n"
          "--- skipped ---\n${SKIPPED_OUT}\n--- cleaned ---\n${CLEANED_OUT}")
endif()

# --- --skip-bad-events covers semantic validation too -------------------
# Every line of inconsistent.txt parses; two of them are semantically
# impossible (a release by a non-holder, a read of a never-written value).
# The sanitizer must drop exactly those two and match the cleaned trace.

run_tool(detect "${GOLDEN_DIR}/inconsistent.txt")
expect_rc(2 "strict parse of inconsistent.txt")
expect_stderr("inconsistent.txt:5:1: inconsistent input trace: lock m released by non-holder"
              "semantic-reject diagnostic names file:line:col")

run_tool(detect "${GOLDEN_DIR}/inconsistent.txt" --skip-bad-events=true)
expect_rc(1 "detect with --skip-bad-events (semantic rejects)")
expect_stderr("skipped 2 malformed or inconsistent event line(s)"
              "semantic skip counter note")
string(REGEX REPLACE " in [0-9.]+s" "" SKIPPED_OUT "${STDOUT}")

run_tool(detect "${GOLDEN_DIR}/inconsistent_cleaned.txt")
expect_rc(1 "detect on the pre-cleaned semantic trace")
string(REGEX REPLACE " in [0-9.]+s" "" CLEANED_OUT "${STDOUT}")
if(NOT SKIPPED_OUT STREQUAL CLEANED_OUT)
  message(FATAL_ERROR "--skip-bad-events diverged on semantic rejects:\n"
          "--- skipped ---\n${SKIPPED_OUT}\n--- cleaned ---\n${CLEANED_OUT}")
endif()

# --- Checkpoint fingerprint mismatch ------------------------------------
# Resuming a checkpoint directory with different flags must refuse with a
# clear diagnostic (exit 2), never silently resume the wrong analysis.

set(CKPT_DIR "robust_ckpt_dir")
file(REMOVE_RECURSE "${CKPT_DIR}")
run_tool(detect "${GOLDEN_DIR}/corrupt_kind_cleaned.txt"
         "--checkpoint=${CKPT_DIR}")
expect_rc(1 "checkpointed run with findings")

run_tool(detect "${GOLDEN_DIR}/corrupt_kind_cleaned.txt"
         "--checkpoint=${CKPT_DIR}" --tier=smt)
expect_rc(2 "resume with a different --tier")
expect_stderr("holds snapshots from a different analysis"
              "fingerprint-mismatch diagnostic")
expect_stderr("rerun with the original flags" "fingerprint-mismatch advice")

# Same flags still resume fine after the refusal.
run_tool(detect "${GOLDEN_DIR}/corrupt_kind_cleaned.txt"
         "--checkpoint=${CKPT_DIR}")
expect_rc(1 "resume with the original flags")
file(REMOVE_RECURSE "${CKPT_DIR}")

# --- CLI validation: misuse is exit 2 with a diagnostic -----------------

run_tool(detect "${GOLDEN_DIR}/quiet.txt" --jobs=0)
expect_rc(2 "--jobs=0")
expect_stderr("explicit --jobs=0 is invalid" "--jobs=0 diagnostic")

run_tool(detect "${GOLDEN_DIR}/quiet.txt" --window=-5)
expect_rc(2 "--window=-5")
expect_stderr("--window must be a positive event count" "--window diagnostic")

run_tool(detect "${GOLDEN_DIR}/quiet.txt" --retry-budgets=banana)
expect_rc(2 "--retry-budgets=banana")
expect_stderr("malformed retry budget 'banana'" "--retry-budgets diagnostic")

run_tool(detect "${GOLDEN_DIR}/quiet.txt" --inject-faults=no.such.site)
expect_rc(2 "--inject-faults=no.such.site")
expect_stderr("unknown fault site 'no.such.site'" "--inject-faults diagnostic")

run_tool(detect "${GOLDEN_DIR}/does_not_exist.txt")
expect_rc(2 "missing input file")
expect_stderr("cannot open" "missing-file diagnostic")

run_tool(detect "${GOLDEN_DIR}/quiet.txt" --tier=turbo)
expect_rc(2 "--tier=turbo")
expect_stderr("--tier must be vc, smt, or hybrid" "--tier diagnostic")

# The WCP/solver cross-check is a test (WcpCrossCheck), not a flag.
run_tool(detect "${GOLDEN_DIR}/quiet.txt" --check-tiers)
expect_rc(2 "--check-tiers")
expect_stderr("unknown option '--check-tiers'" "--check-tiers diagnostic")

run_tool(detect "${GOLDEN_DIR}/quiet.txt" --tier=vc --property=deadlock)
expect_rc(2 "--tier=vc with --property=deadlock")
expect_stderr("--tier=vc detects races only" "--tier=vc property diagnostic")

run_tool(detect "${GOLDEN_DIR}/quiet.txt" --tier=vc --technique=cp)
expect_rc(2 "--tier=vc with --technique=cp")
expect_stderr("has its own dedicated detector" "--tier=vc technique diagnostic")

# Every analysis flag goes through the parser rvpredictd's defaults and
# HELLO share (detect/Stream.h), so the batch CLI range-checks exactly
# what the daemon does: a value the daemon refuses is exit 2 here too.
run_tool(detect "${GOLDEN_DIR}/quiet.txt" --window=4294967297)
expect_rc(2 "--window above 2^32-1 (would wrap to a 1-event window)")
expect_stderr("--window must be a positive event count up to 4294967295"
              "--window range diagnostic")

run_tool(detect "${GOLDEN_DIR}/quiet.txt" --technique=foo)
expect_rc(2 "--technique=foo")
expect_stderr("--technique must be rv, said, cp, or hb (got 'foo')"
              "--technique diagnostic")

run_tool(detect "${GOLDEN_DIR}/quiet.txt" --property=foo)
expect_rc(2 "--property=foo")
expect_stderr("--property must be race, atomicity, or deadlock (got 'foo')"
              "--property diagnostic")

run_tool(detect "${GOLDEN_DIR}/quiet.txt" --budget=0)
expect_rc(2 "--budget=0")
expect_stderr("--budget must be a positive number of seconds"
              "--budget=0 diagnostic")

run_tool(detect "${GOLDEN_DIR}/quiet.txt" --budget=-5)
expect_rc(2 "--budget=-5")
expect_stderr("--budget must be a positive number of seconds"
              "--budget=-5 diagnostic")

run_tool(detect "${GOLDEN_DIR}/quiet.txt" --solver=cvc5)
expect_rc(2 "--solver=cvc5")
expect_stderr("--solver must be idl or z3 (got 'cvc5')" "--solver diagnostic")

run_tool(detect "${GOLDEN_DIR}/quiet.txt" --witness=maybe)
expect_rc(2 "--witness=maybe")
expect_stderr("--witness must be true, false, 1, or 0 (got 'maybe')"
              "--witness diagnostic")

run_tool(detect "${GOLDEN_DIR}/corrupt_kind.txt" --skip-bad-events=yes)
expect_rc(2 "--skip-bad-events=yes")
expect_stderr("--skip-bad-events must be true, false, 1, or 0 (got 'yes')"
              "--skip-bad-events diagnostic")

run_tool(record "${GOLDEN_DIR}/corrupt_kind.txt" --skip-bad-events=yes)
expect_rc(2 "record --skip-bad-events=yes")
expect_stderr("--skip-bad-events must be true, false, 1, or 0"
              "record --skip-bad-events diagnostic")

# --- record and replay: usage and input errors are exit 2 as well --------
# Exit 1 means "findings" and nothing else, so neither subcommand may use
# it for a missing argument or an unreadable or malformed input.

set(BAD_PROGRAM "robust_bad_program.rv")
file(WRITE "${BAD_PROGRAM}" "thread t1 { this is not minirv }\n")
set(GOOD_TRACE "robust_good_trace.txt")

run_tool(record)
expect_rc(2 "record without a program")
expect_stderr("usage: rvpredict record" "record usage diagnostic")

run_tool(record "${GOLDEN_DIR}/does_not_exist.rv")
expect_rc(2 "record of a missing program")
expect_stderr("cannot open" "record missing-file diagnostic")

run_tool(record "${BAD_PROGRAM}")
expect_rc(2 "record of a malformed program")
expect_stderr("error:" "record parse diagnostic")

run_tool(record "${GOLDEN_DIR}/corrupt_kind.txt")
expect_rc(2 "record of a malformed trace")
expect_stderr("unknown event kind 'frobnicate'" "record trace diagnostic")

run_tool(record "${GOLDEN_DIR}/lint_clean.rv"
         "--out=${GOLDEN_DIR}/no_such_dir/trace.txt")
expect_rc(2 "record to an unwritable --out")
expect_stderr("cannot write" "record --out diagnostic")

run_tool(record "${GOLDEN_DIR}/lint_clean.rv" "--out=${GOOD_TRACE}")
expect_rc(0 "record of a valid program")

run_tool(replay "${GOLDEN_DIR}/lint_clean.rv")
expect_rc(2 "replay without --trace")
expect_stderr("usage: rvpredict replay" "replay usage diagnostic")

run_tool(replay "${GOLDEN_DIR}/does_not_exist.rv" "--trace=${GOOD_TRACE}")
expect_rc(2 "replay of a missing program")
expect_stderr("cannot open program" "replay missing-program diagnostic")

run_tool(replay "${GOLDEN_DIR}/lint_clean.rv"
         "--trace=${GOLDEN_DIR}/does_not_exist.txt")
expect_rc(2 "replay of a missing trace")
expect_stderr("cannot open trace" "replay missing-trace diagnostic")

run_tool(replay "${GOLDEN_DIR}/lint_clean.rv"
         "--trace=${GOLDEN_DIR}/corrupt_kind.txt")
expect_rc(2 "replay of a malformed trace")
expect_stderr("unknown event kind 'frobnicate'" "replay trace diagnostic")

run_tool(replay "${BAD_PROGRAM}" "--trace=${GOOD_TRACE}")
expect_rc(2 "replay of a malformed program")
expect_stderr("error:" "replay parse diagnostic")

run_tool(replay "${GOLDEN_DIR}/lint_clean.rv" "--trace=${GOOD_TRACE}")
expect_rc(0 "replay of a valid program and trace")
file(REMOVE "${BAD_PROGRAM}" "${GOOD_TRACE}")

# --- Exit-code taxonomy -------------------------------------------------

run_tool(detect "${GOLDEN_DIR}/quiet.txt")
expect_rc(0 "clean run with no findings")

run_tool(detect "${GOLDEN_DIR}/corrupt_kind_cleaned.txt")
expect_rc(1 "run with findings")

# Solver outage on a racy trace: the pair can no longer be proven either
# way, so it must land in the unknown section (exit 3), never in the races.
run_tool(detect "${GOLDEN_DIR}/corrupt_kind_cleaned.txt"
         "--inject-faults=solver.timeout,session.corrupt")
expect_rc(3 "degraded run with undecided COPs")
string(FIND "${STDOUT}" "unknown:" POS)
if(POS EQUAL -1)
  message(FATAL_ERROR "degraded run printed no unknown section:\n${STDOUT}")
endif()
string(FIND "${STDOUT}" "0 race(s)" POS)
if(POS EQUAL -1)
  message(FATAL_ERROR "degraded run still claimed races:\n${STDOUT}")
endif()

message(STATUS "robustness golden checks passed")
