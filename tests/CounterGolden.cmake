# Pins every counter a detect run reports: the `metrics.counters` object of
# `rvpredict detect --stats-json=-`, one name=value line per counter,
# byte-compared with golden/counters/<row>.expected. Gauges, histograms
# and timings vary from run to run and are left out. Rows: every --jobs=1
# row of DriverGolden (golden/driver, see DriverRows.cmake) plus the
# staticflow catalog row under --static-prune --tier=smt, whose cf guards
# the value-range fold drops (analysis.ranges_folded).
#
# Invoked by CTest as
#   cmake -DRVPREDICT=<tool> -DWORKLOAD=<prog.rv> -DGOLDEN_DIR=<dir>
#         -P CounterGolden.cmake
# Add -DGENERATE=ON to (re)write the expectations instead of checking them.

if(NOT DEFINED RVPREDICT OR NOT DEFINED WORKLOAD OR NOT DEFINED GOLDEN_DIR)
  message(FATAL_ERROR "usage: cmake -DRVPREDICT=... -DWORKLOAD=... -DGOLDEN_DIR=... -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

include(${CMAKE_CURRENT_LIST_DIR}/DriverRows.cmake)

# Runs `rvpredict detect ARGS --stats-json=-` and checks its counters
# against golden/counters/LABEL.expected.
function(check_counters LABEL MAX_RC)
  execute_process(
    COMMAND "${RVPREDICT}" detect ${ARGN} --stats-json=-
    RESULT_VARIABLE RC
    OUTPUT_VARIABLE STDOUT
    ERROR_VARIABLE STDERR)
  if(NOT RC MATCHES "^[0-9]+$" OR RC GREATER MAX_RC)
    message(FATAL_ERROR "[${LABEL}] rvpredict detect ${ARGN} failed (${RC}):\n"
            "${STDOUT}\n${STDERR}")
  endif()
  string(FIND "${STDOUT}" "##rvp:stats-json\n" MARK)
  if(MARK EQUAL -1)
    message(FATAL_ERROR "[${LABEL}] no stats-json block:\n${STDOUT}")
  endif()
  math(EXPR JSON_BEGIN "${MARK} + 17")
  string(SUBSTRING "${STDOUT}" ${JSON_BEGIN} -1 JSON)
  string(JSON COUNT LENGTH "${JSON}" metrics counters)
  set(ACTUAL "")
  if(COUNT GREATER 0)
    math(EXPR LAST "${COUNT} - 1")
    foreach(I RANGE ${LAST})
      string(JSON NAME MEMBER "${JSON}" metrics counters ${I})
      string(JSON VALUE GET "${JSON}" metrics counters ${NAME})
      string(APPEND ACTUAL "${NAME}=${VALUE}\n")
    endforeach()
  endif()

  set(FILE "${GOLDEN_DIR}/counters/${LABEL}.expected")
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
    message(FATAL_ERROR "[${LABEL}] counters differ from ${FILE}:\n"
            "--- expected ---\n${EXPECTED}\n--- actual ---\n${ACTUAL}")
  endif()
endfunction()

set(CHECKED 0)
foreach(ROW ${ROWS})
  string(REPLACE "|" ";" FIELDS "${ROW}")
  list(GET FIELDS 0 LABEL)
  if(NOT LABEL MATCHES "_j1$")
    continue()
  endif()
  list(GET FIELDS 2 MAX_RC)
  list(GET FIELDS 3 ARG_STRING)
  separate_arguments(ARGS UNIX_COMMAND "${ARG_STRING}")
  check_counters(${LABEL} ${MAX_RC} "${WORKLOAD}" ${BASE_ARGS} ${ARGS})
  math(EXPR CHECKED "${CHECKED} + 1")
endforeach()

check_counters(staticflow_smt 1 bench:staticflow --static-prune --tier=smt)
math(EXPR CHECKED "${CHECKED} + 1")

message(STATUS "counter golden: ${CHECKED} rows match")
