# Correctness check for --incremental: deciding COPs through a persistent
# per-window solver session (assumption-based incremental solving,
# docs/INCREMENTAL_SOLVING.md) must print byte-identical output (reports,
# witnesses, summary counts; wall-clock timing normalized away) to the
# legacy fresh-solver-per-COP path — for the SMT techniques under both
# schedules, sequentially and with --jobs=4, with and without
# --static-prune, and for the atomicity and deadlock properties. A
# --stats-json run guards against the vacuous pass by requiring the
# session path to actually answer queries (solver.incremental_calls > 0)
# while solver_calls stays mode-invariant.
# Invoked by CTest as
#   cmake -DRVPREDICT=<tool> -DWORKLOAD=<prog.rv> -DPROPS_WORKLOAD=<prog.rv>
#         -P IncrementalGolden.cmake

if(NOT DEFINED RVPREDICT OR NOT DEFINED WORKLOAD OR NOT DEFINED PROPS_WORKLOAD)
  message(FATAL_ERROR "usage: cmake -DRVPREDICT=... -DWORKLOAD=... -DPROPS_WORKLOAD=... -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

set(INPUT "${WORKLOAD}")
function(run_detect INCREMENTAL EXTRA OUT_VAR)
  execute_process(
    COMMAND "${RVPREDICT}" detect "${INPUT}" --seed=1 --witness=true
            --incremental=${INCREMENTAL} ${EXTRA}
    RESULT_VARIABLE RC
    OUTPUT_VARIABLE STDOUT
    ERROR_VARIABLE STDERR)
  # Exit 1 just means findings were reported; >=2 is a usage/internal error.
  if(RC GREATER 1)
    message(FATAL_ERROR "rvpredict detect --incremental=${INCREMENTAL} "
            "${EXTRA} failed (${RC}):\n${STDOUT}\n${STDERR}")
  endif()
  string(REGEX REPLACE " in [0-9.]+s" "" STDOUT "${STDOUT}")
  set(${OUT_VAR} "${STDOUT}" PARENT_SCOPE)
endfunction()

function(check_pair EXTRA LABEL)
  run_detect(false "${EXTRA}" LEGACY)
  run_detect(true "${EXTRA}" INCREMENTAL)
  if(NOT LEGACY STREQUAL INCREMENTAL)
    message(FATAL_ERROR "--incremental changed output for ${LABEL}:\n"
            "--- legacy ---\n${LEGACY}\n--- incremental ---\n${INCREMENTAL}")
  endif()
endfunction()

# SMT race techniques: schedules x jobs x static pruning.
foreach(TECHNIQUE rv said)
  foreach(SCHEDULE rr random)
    foreach(JOBS 1 4)
      check_pair("--technique=${TECHNIQUE};--schedule=${SCHEDULE};--jobs=${JOBS}"
                 "technique=${TECHNIQUE} schedule=${SCHEDULE} jobs=${JOBS}")
    endforeach()
  endforeach()
  check_pair("--technique=${TECHNIQUE};--schedule=rr;--jobs=2;--static-prune=true"
             "technique=${TECHNIQUE} static-prune")
endforeach()

# The other SMT-backed properties ride the same DetectorOptions flag, on
# a workload that has atomicity violations and a deadlock across windows.
set(INPUT "${PROPS_WORKLOAD}")
foreach(PROPERTY atomicity deadlock)
  foreach(JOBS 1 4)
    check_pair("--property=${PROPERTY};--schedule=rr;--window=24;--jobs=${JOBS}"
               "property=${PROPERTY} jobs=${JOBS}")
  endforeach()
endforeach()
set(INPUT "${WORKLOAD}")

# The closure-based techniques must simply ignore the flag.
foreach(TECHNIQUE cp hb)
  check_pair("--technique=${TECHNIQUE};--schedule=rr;--jobs=1"
             "technique=${TECHNIQUE}")
endforeach()

# Non-vacuity: the incremental run must report the workload's race AND
# route its queries through the session (solver.incremental_calls > 0),
# with solver_calls identical between the modes. Pinned to --tier=smt:
# the default hybrid tier short-circuits this workload's COPs past the
# session entirely (docs/TIERS.md), which would make this check vacuous.
run_detect(true "--technique=rv;--schedule=rr;--jobs=1;--tier=smt;--stats-json=-" INC_STATS)
run_detect(false "--technique=rv;--schedule=rr;--jobs=1;--tier=smt;--stats-json=-" LEG_STATS)
if(NOT INC_STATS MATCHES "1 race")
  message(FATAL_ERROR "incremental run lost the workload's race:\n${INC_STATS}")
endif()
string(REGEX MATCH "\"solver.incremental_calls\": *([0-9]+)" _ "${INC_STATS}")
if(NOT CMAKE_MATCH_1 OR CMAKE_MATCH_1 EQUAL 0)
  message(FATAL_ERROR "session path never queried "
          "(solver.incremental_calls missing or 0):\n${INC_STATS}")
endif()
set(INC_CALLS ${CMAKE_MATCH_1})
string(REGEX MATCH "\"solver_calls\": *([0-9]+)" _ "${INC_STATS}")
set(INC_SOLVER_CALLS ${CMAKE_MATCH_1})
string(REGEX MATCH "\"solver_calls\": *([0-9]+)" _ "${LEG_STATS}")
if(NOT INC_SOLVER_CALLS STREQUAL CMAKE_MATCH_1)
  message(FATAL_ERROR "solver_calls diverged: incremental=${INC_SOLVER_CALLS} "
          "legacy=${CMAKE_MATCH_1}")
endif()

message(STATUS "incremental-solving equivalence check passed "
        "(2 SMT techniques x 2 schedules x 2 jobs + prune + atomicity + "
        "deadlock + cp/hb, incremental_calls=${INC_CALLS})")
