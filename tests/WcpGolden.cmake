# Correctness check for the WCP vector-clock tier (docs/TIERS.md): the
# hybrid tier — WCP pruning MHB-ordered COPs and short-circuiting
# WCP-racy ones past the solver — must print byte-identical output
# (reports, witnesses, summary counts; wall-clock timing normalized away)
# to the solver-only tier, for both SMT techniques, sequentially and with
# --jobs=4, with and without --static-prune, on both fixed workloads.
# Non-vacuity: the hybrid run must actually prune (wcp_pruned_cops > 0)
# and actually skip solves (solver_calls_saved > 0). The WCP verdicts
# themselves are checked against the solver in process (WcpCrossCheck in
# WcpTest.cpp).
# Invoked by CTest as
#   cmake -DRVPREDICT=<tool> -DWORKLOAD=<prog.rv> -DRACE_WORKLOAD=<prog.rv>
#         -P WcpGolden.cmake

if(NOT DEFINED RVPREDICT OR NOT DEFINED WORKLOAD OR NOT DEFINED RACE_WORKLOAD)
  message(FATAL_ERROR "usage: cmake -DRVPREDICT=... -DWORKLOAD=... -DRACE_WORKLOAD=... -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

function(run_detect INPUT TIER EXTRA OUT_VAR)
  execute_process(
    COMMAND "${RVPREDICT}" detect "${INPUT}" --seed=1 --schedule=rr
            --witness=true --tier=${TIER} ${EXTRA}
    RESULT_VARIABLE RC
    OUTPUT_VARIABLE STDOUT
    ERROR_VARIABLE STDERR)
  # Exit 1 just means findings were reported; >=2 is a usage/internal error.
  if(RC GREATER 1)
    message(FATAL_ERROR "rvpredict detect --tier=${TIER} ${EXTRA} on "
            "${INPUT} failed (${RC}):\n${STDOUT}\n${STDERR}")
  endif()
  string(REGEX REPLACE " in [0-9.]+s" "" STDOUT "${STDOUT}")
  set(${OUT_VAR} "${STDOUT}" PARENT_SCOPE)
endfunction()

function(check_pair INPUT EXTRA LABEL)
  run_detect("${INPUT}" smt "${EXTRA}" SMT_OUT)
  run_detect("${INPUT}" hybrid "${EXTRA}" HYBRID_OUT)
  if(NOT SMT_OUT STREQUAL HYBRID_OUT)
    message(FATAL_ERROR "--tier=hybrid changed output for ${LABEL}:\n"
            "--- smt ---\n${SMT_OUT}\n--- hybrid ---\n${HYBRID_OUT}")
  endif()
endfunction()

foreach(INPUT "${WORKLOAD}" "${RACE_WORKLOAD}")
  foreach(TECHNIQUE rv said)
    foreach(JOBS 1 4)
      check_pair("${INPUT}" "--technique=${TECHNIQUE};--jobs=${JOBS}"
                 "${INPUT} technique=${TECHNIQUE} jobs=${JOBS}")
    endforeach()
    check_pair("${INPUT}"
               "--technique=${TECHNIQUE};--jobs=2;--static-prune=true"
               "${INPUT} technique=${TECHNIQUE} static-prune")
  endforeach()
endforeach()

# Non-vacuity: on the prune workload the hybrid tier must prune
# MHB-ordered COPs and save at least one solver call.
execute_process(
  COMMAND "${RVPREDICT}" detect "${WORKLOAD}" --seed=1 --schedule=rr
          --technique=rv --tier=hybrid --stats-json=-
  RESULT_VARIABLE RC
  OUTPUT_VARIABLE STDOUT
  ERROR_VARIABLE STDERR)
if(RC GREATER 1)
  message(FATAL_ERROR "hybrid stats run failed (${RC}):\n${STDOUT}\n${STDERR}")
endif()
string(REGEX MATCH "\"wcp_pruned_cops\": *([0-9]+)" _ "${STDOUT}")
if(NOT CMAKE_MATCH_1 OR CMAKE_MATCH_1 EQUAL 0)
  message(FATAL_ERROR "hybrid tier pruned nothing "
          "(wcp_pruned_cops missing or 0):\n${STDOUT}")
endif()
set(PRUNED ${CMAKE_MATCH_1})
string(REGEX MATCH "\"solver_calls_saved\": *([0-9]+)" _ "${STDOUT}")
if(NOT CMAKE_MATCH_1 OR CMAKE_MATCH_1 EQUAL 0)
  message(FATAL_ERROR "hybrid tier saved no solver calls "
          "(solver_calls_saved missing or 0):\n${STDOUT}")
endif()
set(SAVED ${CMAKE_MATCH_1})

message(STATUS "wcp tier equivalence check passed "
        "(2 workloads x 2 SMT techniques x 2 jobs + prune, "
        "wcp_pruned_cops=${PRUNED}, solver_calls_saved=${SAVED})")
