# Golden-file check for `rvpredict detect --stats-json`: runs the fixed
# workload, then asserts the output parses as JSON and carries the Table-1
# fields. Invoked by CTest as
#   cmake -DRVPREDICT=<tool> -DWORKLOAD=<trace.rv> -P StatsJsonGolden.cmake

if(NOT DEFINED RVPREDICT OR NOT DEFINED WORKLOAD)
  message(FATAL_ERROR "usage: cmake -DRVPREDICT=... -DWORKLOAD=... -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

set(OUT "${CMAKE_CURRENT_BINARY_DIR}/stats_golden.json")

# Pinned to --tier=smt: the solver/encoder assertions below (solves >= 1,
# cone counters) describe the solver pipeline, which the default hybrid
# tier legitimately short-circuits on this workload (docs/TIERS.md). The
# hybrid tier's own fields are checked in a separate run further down.
execute_process(
  COMMAND "${RVPREDICT}" detect "${WORKLOAD}" --technique=rv --schedule=rr
          --seed=1 --tier=smt --stats-json=${OUT}
  RESULT_VARIABLE RC
  OUTPUT_VARIABLE STDOUT
  ERROR_VARIABLE STDERR)
# Exit 1 just means findings were reported; >=2 is a usage/internal error.
if(RC GREATER 1)
  message(FATAL_ERROR "rvpredict detect failed (${RC}):\n${STDOUT}\n${STDERR}")
endif()

file(READ "${OUT}" JSON_TEXT)

# Schema version 4 removed three per-backend solver latency histograms
# (solver.latency_seconds and the witness phase time the same solves) and
# the last-writer-wins sat.clauses_kept gauge. Version 5 removed the
# wcp.latency_seconds histogram (the wcp phase times the same build).
# Version 6 removed the per-node formula memory gauges (mem.formula_dag_*
# accounts the same storage per arena chunk). check_schema asserts the
# version and that none of the seven comes back.
set(REMOVED_METRICS solver.idl.latency_seconds
    solver.incremental.latency_seconds solver.z3.latency_seconds
    sat.clauses_kept wcp.latency_seconds
    mem.formula_bytes mem.formula_peak_bytes)
function(check_schema TEXT LABEL)
  if(NOT TEXT MATCHES "^{\"schema_version\":6,")
    message(FATAL_ERROR "${LABEL}: schema_version is not 6:\n${TEXT}")
  endif()
  foreach(NAME ${REMOVED_METRICS})
    string(FIND "${TEXT}" "\"${NAME}\"" AT)
    if(NOT AT EQUAL -1)
      message(FATAL_ERROR "${LABEL}: removed metric ${NAME} is back:\n${TEXT}")
    endif()
  endforeach()
endfunction()
check_schema("${JSON_TEXT}" "--tier=smt")

# The same run on the Z3 backend (the idl fallback where the build has no
# Z3) must not bring a removed metric back either.
set(Z3_OUT "${CMAKE_CURRENT_BINARY_DIR}/stats_golden_z3.json")
execute_process(
  COMMAND "${RVPREDICT}" detect "${WORKLOAD}" --technique=rv --schedule=rr
          --seed=1 --tier=smt --solver=z3 --stats-json=${Z3_OUT}
  RESULT_VARIABLE RC
  OUTPUT_VARIABLE STDOUT
  ERROR_VARIABLE STDERR)
if(RC GREATER 1)
  message(FATAL_ERROR "rvpredict detect --solver=z3 failed (${RC}):\n${STDOUT}\n${STDERR}")
endif()
file(READ "${Z3_OUT}" Z3_TEXT)
check_schema("${Z3_TEXT}" "--solver=z3")

# string(JSON) needs CMake >= 3.19; older hosts fall back to substring
# checks so the test still guards the field set.
if(CMAKE_VERSION VERSION_GREATER_EQUAL 3.19)
  foreach(FIELD windows cops cops_pruned_static qc_passed solver_calls
          solver_timeouts seconds technique)
    string(JSON VALUE ERROR_VARIABLE JSON_ERR GET "${JSON_TEXT}" ${FIELD})
    if(JSON_ERR)
      message(FATAL_ERROR "missing or unparsable field '${FIELD}': ${JSON_ERR}\n${JSON_TEXT}")
    endif()
  endforeach()
  # Parse-validates the nested structures and pins the phase hierarchy.
  string(JSON PHASE_NAME ERROR_VARIABLE JSON_ERR GET "${JSON_TEXT}" phases name)
  if(JSON_ERR OR NOT PHASE_NAME STREQUAL "total")
    message(FATAL_ERROR "phases.name != total: ${JSON_ERR} '${PHASE_NAME}'")
  endif()
  string(JSON DETECT_NAME ERROR_VARIABLE JSON_ERR GET "${JSON_TEXT}" phases
         children 0 name)
  if(JSON_ERR OR NOT DETECT_NAME STREQUAL "detect")
    message(FATAL_ERROR "first phase != detect: ${JSON_ERR} '${DETECT_NAME}'")
  endif()
  string(JSON NCOUNTERS ERROR_VARIABLE JSON_ERR LENGTH "${JSON_TEXT}" metrics
         counters)
  if(JSON_ERR OR NCOUNTERS LESS 1)
    message(FATAL_ERROR "no counters in metrics: ${JSON_ERR}\n${JSON_TEXT}")
  endif()
  # The fixed workload must actually exercise the pipeline.
  string(JSON WINDOWS GET "${JSON_TEXT}" windows)
  string(JSON COPS GET "${JSON_TEXT}" cops)
  string(JSON SOLVES GET "${JSON_TEXT}" solver_calls)
  if(WINDOWS LESS 1 OR COPS LESS 1 OR SOLVES LESS 1)
    message(FATAL_ERROR "degenerate run: windows=${WINDOWS} cops=${COPS} solves=${SOLVES}")
  endif()
  # Cone-of-influence slicing is on by default, so its counters must tick.
  # (encoder.skeleton_cache_hits is intentionally NOT asserted: rv-mode
  # cones are seeded per COP and rarely coincide — see docs/ENCODER.md.)
  foreach(COUNTER encoder.cone_events encoder.sliced_atoms)
    string(JSON VALUE ERROR_VARIABLE JSON_ERR GET "${JSON_TEXT}" metrics
           counters ${COUNTER})
    if(JSON_ERR OR VALUE LESS 1)
      message(FATAL_ERROR "${COUNTER} counter missing or zero under default slicing: ${JSON_ERR} '${VALUE}'\n${JSON_TEXT}")
    endif()
  endforeach()
else()
  foreach(FIELD windows cops qc_passed solver_calls solver_timeouts)
    if(NOT JSON_TEXT MATCHES "\"${FIELD}\":")
      message(FATAL_ERROR "missing field '${FIELD}':\n${JSON_TEXT}")
    endif()
  endforeach()
endif()

# Second run with the static pruner installed (PRUNE_WORKLOAD is built so
# the analysis provably fires): the analysis.* counters must be present
# and non-zero.
if(DEFINED PRUNE_WORKLOAD)
  set(PRUNE_OUT "${CMAKE_CURRENT_BINARY_DIR}/stats_golden_prune.json")
  execute_process(
    COMMAND "${RVPREDICT}" detect "${PRUNE_WORKLOAD}" --technique=rv
            --schedule=rr --seed=1 --static-prune --stats-json=${PRUNE_OUT}
    RESULT_VARIABLE RC
    OUTPUT_VARIABLE STDOUT
    ERROR_VARIABLE STDERR)
  if(RC GREATER 1)
    message(FATAL_ERROR "rvpredict detect --static-prune failed (${RC}):\n${STDOUT}\n${STDERR}")
  endif()
  file(READ "${PRUNE_OUT}" JSON_TEXT)
  if(CMAKE_VERSION VERSION_GREATER_EQUAL 3.19)
    string(JSON PRUNED ERROR_VARIABLE JSON_ERR GET "${JSON_TEXT}"
           cops_pruned_static)
    if(JSON_ERR OR PRUNED LESS 1)
      message(FATAL_ERROR "cops_pruned_static missing or zero under --static-prune: ${JSON_ERR} '${PRUNED}'\n${JSON_TEXT}")
    endif()
    string(JSON COUNTER ERROR_VARIABLE JSON_ERR GET "${JSON_TEXT}" metrics
           counters analysis.cops_pruned_static)
    if(JSON_ERR OR NOT COUNTER EQUAL PRUNED)
      message(FATAL_ERROR "analysis.cops_pruned_static counter (${COUNTER}) disagrees with cops_pruned_static (${PRUNED}): ${JSON_ERR}")
    endif()
    string(JSON TLOCAL ERROR_VARIABLE JSON_ERR GET "${JSON_TEXT}" metrics
           gauges analysis.vars_thread_local)
    if(JSON_ERR OR TLOCAL LESS 1)
      message(FATAL_ERROR "analysis.vars_thread_local gauge missing or zero: ${JSON_ERR} '${TLOCAL}'\n${JSON_TEXT}")
    endif()
  elseif(NOT JSON_TEXT MATCHES "\"cops_pruned_static\":")
    message(FATAL_ERROR "missing field 'cops_pruned_static':\n${JSON_TEXT}")
  endif()
endif()

# Third run under the default hybrid tier: the WCP fields must be present,
# and on this workload the tier must actually save solver work
# (solver_calls_saved > 0 with solver_calls = 0 — every COP that survives
# the filters is WCP-racy and short-circuits past the solver).
set(WCP_OUT "${CMAKE_CURRENT_BINARY_DIR}/stats_golden_wcp.json")
execute_process(
  COMMAND "${RVPREDICT}" detect "${WORKLOAD}" --technique=rv --schedule=rr
          --seed=1 --tier=hybrid --stats-json=${WCP_OUT}
  RESULT_VARIABLE RC
  OUTPUT_VARIABLE STDOUT
  ERROR_VARIABLE STDERR)
if(RC GREATER 1)
  message(FATAL_ERROR "rvpredict detect --tier=hybrid failed (${RC}):\n${STDOUT}\n${STDERR}")
endif()
file(READ "${WCP_OUT}" JSON_TEXT)
# The only run that builds the WCP index, so the only one that would emit
# wcp.latency_seconds.
check_schema("${JSON_TEXT}" "--tier=hybrid")
if(CMAKE_VERSION VERSION_GREATER_EQUAL 3.19)
  foreach(FIELD wcp_races wcp_pruned_cops wcp_residue_cops solver_calls_saved)
    string(JSON VALUE ERROR_VARIABLE JSON_ERR GET "${JSON_TEXT}" ${FIELD})
    if(JSON_ERR)
      message(FATAL_ERROR "missing or unparsable field '${FIELD}': ${JSON_ERR}\n${JSON_TEXT}")
    endif()
  endforeach()
  string(JSON SAVED GET "${JSON_TEXT}" solver_calls_saved)
  string(JSON SOLVES GET "${JSON_TEXT}" solver_calls)
  if(SAVED LESS 1)
    message(FATAL_ERROR "hybrid tier saved no solver calls on the fixed workload: solver_calls_saved=${SAVED}\n${JSON_TEXT}")
  endif()
  if(SOLVES GREATER 0)
    message(FATAL_ERROR "hybrid tier still called the solver on the fixed workload: solver_calls=${SOLVES}\n${JSON_TEXT}")
  endif()
elseif(NOT JSON_TEXT MATCHES "\"solver_calls_saved\":")
  message(FATAL_ERROR "missing field 'solver_calls_saved':\n${JSON_TEXT}")
endif()

message(STATUS "stats-json golden check passed: ${OUT}")
