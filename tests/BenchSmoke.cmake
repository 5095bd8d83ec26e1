# Smoke run of the microbenchmarks' A/B pairs: each pair runs once at its
# smallest argument, and the arms must agree on what they report —
#
#   BM_MaximalStaticPrune / BM_MaximalNoPrune    same `races`
#   BM_MaximalHybridTier  / BM_MaximalSmtTier    same `races`
#   BM_ConeEncodeSliced   / BM_ConeEncodeUnsliced  sliced `atoms/cop` lower
#
# and the binaries accept only google-benchmark flags. Timings are not
# checked; rvbench/run.py measures performance.
# Invoked by CTest as
#   cmake -DBENCH_DETECTORS=<bin> -DBENCH_CONSTRAINTS=<bin>
#         -P BenchSmoke.cmake

if(NOT DEFINED BENCH_DETECTORS OR NOT DEFINED BENCH_CONSTRAINTS)
  message(FATAL_ERROR "usage: cmake -DBENCH_DETECTORS=... -DBENCH_CONSTRAINTS=... -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

# Runs BIN with FILTER for one short repetition; leaves the JSON report in
# REPORT.
function(run_bench BIN FILTER)
  execute_process(
    COMMAND "${BIN}" "--benchmark_filter=${FILTER}"
            --benchmark_min_time=0.001 --benchmark_format=json
    RESULT_VARIABLE RC
    OUTPUT_VARIABLE STDOUT
    ERROR_VARIABLE STDERR)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR "${BIN} failed (${RC}):\n${STDOUT}\n${STDERR}")
  endif()
  set(REPORT "${STDOUT}" PARENT_SCOPE)
endfunction()

# Sets OUT to counter COUNTER of benchmark NAME in REPORT.
function(counter REPORT NAME COUNTER OUT)
  string(JSON N LENGTH "${REPORT}" benchmarks)
  math(EXPR LAST "${N} - 1")
  foreach(I RANGE ${LAST})
    string(JSON ENTRY GET "${REPORT}" benchmarks ${I})
    string(JSON ENTRY_NAME GET "${ENTRY}" name)
    if(ENTRY_NAME STREQUAL NAME)
      string(JSON VALUE ERROR_VARIABLE ERR GET "${ENTRY}" "${COUNTER}")
      if(ERR)
        message(FATAL_ERROR "${NAME} reports no '${COUNTER}' counter:\n"
                "${ENTRY}")
      endif()
      set(${OUT} "${VALUE}" PARENT_SCOPE)
      return()
    endif()
  endforeach()
  message(FATAL_ERROR "${NAME} did not run:\n${REPORT}")
endfunction()

function(expect_same_races REPORT A B)
  counter("${REPORT}" ${A} races RACES_A)
  counter("${REPORT}" ${B} races RACES_B)
  if(NOT RACES_A EQUAL RACES_B)
    message(FATAL_ERROR "${A} reports ${RACES_A} races, ${B} ${RACES_B}")
  endif()
  message(STATUS "${A} / ${B}: ${RACES_A} races each")
endfunction()

run_bench("${BENCH_DETECTORS}"
          "^BM_Maximal(StaticPrune|NoPrune)/10$|^BM_Maximal(HybridTier|SmtTier)/2000$")
expect_same_races("${REPORT}" BM_MaximalStaticPrune/10 BM_MaximalNoPrune/10)
expect_same_races("${REPORT}" BM_MaximalHybridTier/2000 BM_MaximalSmtTier/2000)

run_bench("${BENCH_CONSTRAINTS}" "^BM_ConeEncode(Sliced|Unsliced)$")
counter("${REPORT}" BM_ConeEncodeSliced "atoms/cop" SLICED)
counter("${REPORT}" BM_ConeEncodeUnsliced "atoms/cop" UNSLICED)
# if() compares the counters' floating-point text numerically.
if(NOT SLICED LESS UNSLICED)
  message(FATAL_ERROR "sliced encoding emits ${SLICED} atoms per COP, "
          "not fewer than the whole window's ${UNSLICED}")
endif()
message(STATUS "atoms/cop: sliced ${SLICED}, unsliced ${UNSLICED}")

# A flag of the binary's own would have to be peeled off before
# google-benchmark parses argv; there are none.
execute_process(
  COMMAND "${BENCH_DETECTORS}" --wcp --benchmark_filter=^$
  RESULT_VARIABLE RC
  OUTPUT_VARIABLE STDOUT
  ERROR_VARIABLE STDERR)
string(FIND "${STDERR}" "unrecognized command-line flag: --wcp" POS)
if(RC EQUAL 0 OR POS EQUAL -1)
  message(FATAL_ERROR "bench_detectors accepted --wcp (${RC}):\n${STDERR}")
endif()

message(STATUS "bench smoke check passed")
