# Pins the window driver's observable output against checked-in
# expectations: `rvpredict detect --witness=true` on the fixed property
# workload (three windows of 24 events), byte-compared with
# golden/driver/<row>.expected after normalizing wall-clock timing. Each
# expectation holds the report (findings, witnesses, unknown section) and
# the Table-1 fields of --stats-json. Rows cover:
#
#   * race techniques rv/said/hb/cp and the rv tiers, at --jobs=1 and 4;
#   * the atomicity and deadlock properties, at --jobs=1 and 4;
#   * injected solver timeouts (the unknown section, its supersede path and
#     the retry ladder) for every property;
#   * a --checkpoint run killed by detect.abort after the first window and
#     resumed, per property: same report and Table-1 fields as the
#     uninterrupted run, with the skipped window counted as resumed.
#
# Invoked by CTest as
#   cmake -DRVPREDICT=<tool> -DWORKLOAD=<prog.rv> -DGOLDEN_DIR=<dir>
#         -DOUT_DIR=<dir> -P DriverGolden.cmake
# Add -DGENERATE=ON to (re)write the expectations instead of checking them.

if(NOT DEFINED RVPREDICT OR NOT DEFINED WORKLOAD OR NOT DEFINED GOLDEN_DIR
   OR NOT DEFINED OUT_DIR)
  message(FATAL_ERROR "usage: cmake -DRVPREDICT=... -DWORKLOAD=... -DGOLDEN_DIR=... -DOUT_DIR=... -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

include(${CMAKE_CURRENT_LIST_DIR}/DriverRows.cmake)
set(TABLE1_FIELDS
  windows cops cops_pruned_static qc_passed solver_calls solver_timeouts
  solver_retries degraded_sessions unknown_cops wcp_races wcp_pruned_cops
  wcp_residue_cops solver_calls_saved jobs)

# Runs one detect and renders "<report>-- table1 --\n<field>=<value>...".
# \p WANT_STATS=0 leaves the Table-1 block out (rows whose solve-to-worker
# assignment, and so the degraded-session tally, is scheduling-dependent).
function(run_row ARGS WANT_STATS MAX_RC OUT_VAR)
  execute_process(
    COMMAND "${RVPREDICT}" detect "${WORKLOAD}" ${BASE_ARGS} ${ARGS}
            --stats-json=-
    RESULT_VARIABLE RC
    OUTPUT_VARIABLE STDOUT
    ERROR_VARIABLE STDERR)
  if(NOT RC MATCHES "^[0-9]+$" OR RC GREATER MAX_RC)
    message(FATAL_ERROR "rvpredict detect ${ARGS} failed (${RC}):\n"
            "${STDOUT}\n${STDERR}")
  endif()
  string(FIND "${STDOUT}" "##rvp:stats-json\n" MARK)
  if(MARK EQUAL -1)
    message(FATAL_ERROR "no stats-json block for ${ARGS}:\n${STDOUT}")
  endif()
  string(SUBSTRING "${STDOUT}" 0 ${MARK} REPORT)
  math(EXPR JSON_BEGIN "${MARK} + 17")
  string(SUBSTRING "${STDOUT}" ${JSON_BEGIN} -1 JSON)
  string(REGEX REPLACE " in [0-9.]+s" "" REPORT "${REPORT}")
  set(OUT "${REPORT}")
  if(WANT_STATS)
    string(APPEND OUT "-- table1 --\n")
    foreach(FIELD ${TABLE1_FIELDS})
      string(JSON VALUE GET "${JSON}" "${FIELD}")
      string(APPEND OUT "${FIELD}=${VALUE}\n")
    endforeach()
  endif()
  set(${OUT_VAR} "${OUT}" PARENT_SCOPE)
  # The resumed-window counter, for the kill/resume rows.
  string(JSON RESUMED ERROR_VARIABLE NO_COUNTER
         GET "${JSON}" metrics counters detect.resumed_windows)
  if(NO_COUNTER)
    set(RESUMED 0)
  endif()
  set(${OUT_VAR}_RESUMED "${RESUMED}" PARENT_SCOPE)
endfunction()

set(CHECKED 0)
function(expect LABEL ACTUAL)
  set(FILE "${GOLDEN_DIR}/driver/${LABEL}.expected")
  if(GENERATE)
    file(WRITE "${FILE}" "${ACTUAL}")
    message(STATUS "wrote ${FILE}")
    return()
  endif()
  if(NOT EXISTS "${FILE}")
    message(FATAL_ERROR "[${LABEL}] missing expectation ${FILE}")
  endif()
  file(READ "${FILE}" EXPECTED)
  if(NOT ACTUAL STREQUAL EXPECTED)
    message(FATAL_ERROR "[${LABEL}] output differs from ${FILE}:\n"
            "--- expected ---\n${EXPECTED}\n--- actual ---\n${ACTUAL}")
  endif()
endfunction()


foreach(ROW ${ROWS})
  string(REPLACE "|" ";" FIELDS "${ROW}")
  list(GET FIELDS 0 LABEL)
  list(GET FIELDS 1 WANT_STATS)
  list(GET FIELDS 2 MAX_RC)
  list(GET FIELDS 3 ARG_STRING)
  separate_arguments(ARGS UNIX_COMMAND "${ARG_STRING}")
  run_row("${ARGS}" ${WANT_STATS} ${MAX_RC} OUT)
  expect(${LABEL} "${OUT}")
  math(EXPR CHECKED "${CHECKED} + 1")
endforeach()

# Kill/resume per property: the killed run exits 3 after checkpointing
# window 0; the rerun must skip exactly that window and end where the
# uninterrupted run does.
foreach(CASE "rv|--technique=rv" "atomicity|--property=atomicity"
             "deadlock|--property=deadlock")
  string(REPLACE "|" ";" FIELDS "${CASE}")
  list(GET FIELDS 0 LABEL)
  list(GET FIELDS 1 FLAG)
  set(CKPT_DIR "${OUT_DIR}/driver_ckpt_${LABEL}")
  file(REMOVE_RECURSE "${CKPT_DIR}")
  execute_process(
    COMMAND "${RVPREDICT}" detect "${WORKLOAD}" ${BASE_ARGS} ${FLAG}
            --jobs=1 --checkpoint=${CKPT_DIR} --inject-faults=detect.abort=1
    RESULT_VARIABLE RC
    OUTPUT_VARIABLE STDOUT
    ERROR_VARIABLE STDERR)
  if(NOT RC EQUAL 3)
    message(FATAL_ERROR "[resume_${LABEL}] detect.abort did not kill the run "
            "(exit ${RC}):\n${STDOUT}\n${STDERR}")
  endif()
  run_row("${FLAG};--jobs=1;--checkpoint=${CKPT_DIR}" 1 1 OUT)
  if(NOT OUT_RESUMED EQUAL 1)
    message(FATAL_ERROR "[resume_${LABEL}] resumed ${OUT_RESUMED} window(s), "
            "wanted 1")
  endif()
  expect(resume_${LABEL} "${OUT}")
  math(EXPR CHECKED "${CHECKED} + 1")
endforeach()

message(STATUS "driver golden: ${CHECKED} rows match")
