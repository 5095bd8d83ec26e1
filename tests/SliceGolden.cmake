# Correctness check for cone-of-influence slicing (docs/ENCODER.md): the
# sliced per-COP encodings (the default) must print byte-identical output
# (reports, witnesses, summary counts; wall-clock timing normalized away)
# to the full window encodings (--no-slice) — for the SMT race techniques
# under both schedules, sequentially and with --jobs=4, with and without
# --static-prune, and for the atomicity and deadlock properties. A
# --stats-json run guards against the vacuous pass by requiring the sliced
# path to actually restrict the encodings (encoder.cone_events and
# encoder.sliced_atoms > 0, cone strictly smaller than the emitted order
# variables of the unsliced run).
# Invoked by CTest as
#   cmake -DRVPREDICT=<tool> -DWORKLOAD=<prog.rv> -DPROPS_WORKLOAD=<prog.rv>
#         -P SliceGolden.cmake

if(NOT DEFINED RVPREDICT OR NOT DEFINED WORKLOAD OR NOT DEFINED PROPS_WORKLOAD)
  message(FATAL_ERROR "usage: cmake -DRVPREDICT=... -DWORKLOAD=... -DPROPS_WORKLOAD=... -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

set(INPUT "${WORKLOAD}")
function(run_detect NOSLICE EXTRA OUT_VAR)
  execute_process(
    COMMAND "${RVPREDICT}" detect "${INPUT}" --seed=1 --witness=true
            --no-slice=${NOSLICE} ${EXTRA}
    RESULT_VARIABLE RC
    OUTPUT_VARIABLE STDOUT
    ERROR_VARIABLE STDERR)
  # Exit 1 just means findings were reported; >=2 is a usage/internal error.
  if(RC GREATER 1)
    message(FATAL_ERROR "rvpredict detect --no-slice=${NOSLICE} "
            "${EXTRA} failed (${RC}):\n${STDOUT}\n${STDERR}")
  endif()
  string(REGEX REPLACE " in [0-9.]+s" "" STDOUT "${STDOUT}")
  set(${OUT_VAR} "${STDOUT}" PARENT_SCOPE)
endfunction()

function(check_pair EXTRA LABEL)
  run_detect(false "${EXTRA}" SLICED)
  run_detect(true "${EXTRA}" UNSLICED)
  if(NOT SLICED STREQUAL UNSLICED)
    message(FATAL_ERROR "--no-slice changed output for ${LABEL}:\n"
            "--- sliced ---\n${SLICED}\n--- unsliced ---\n${UNSLICED}")
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

# Non-vacuity: the sliced run must report the workload's race AND actually
# restrict the encodings — the cone counters only tick on the sliced path.
# Pinned to --tier=smt: the default hybrid tier short-circuits this
# workload's COPs before the encoder runs (docs/TIERS.md), which would
# make the cone counters legitimately zero.
run_detect(false "--technique=rv;--schedule=rr;--jobs=1;--tier=smt;--stats-json=-" SLC_STATS)
run_detect(true "--technique=rv;--schedule=rr;--jobs=1;--tier=smt;--stats-json=-" UNS_STATS)
if(NOT SLC_STATS MATCHES "1 race")
  message(FATAL_ERROR "sliced run lost the workload's race:\n${SLC_STATS}")
endif()
string(REGEX MATCH "\"encoder.cone_events\": *([0-9]+)" _ "${SLC_STATS}")
if(NOT CMAKE_MATCH_1 OR CMAKE_MATCH_1 EQUAL 0)
  message(FATAL_ERROR "sliced run never built a cone "
          "(encoder.cone_events missing or 0):\n${SLC_STATS}")
endif()
set(CONE_EVENTS ${CMAKE_MATCH_1})
string(REGEX MATCH "\"encoder.sliced_atoms\": *([0-9]+)" _ "${SLC_STATS}")
if(NOT CMAKE_MATCH_1 OR CMAKE_MATCH_1 EQUAL 0)
  message(FATAL_ERROR "sliced run emitted no skeleton atoms "
          "(encoder.sliced_atoms missing or 0):\n${SLC_STATS}")
endif()
# The unsliced run allocates an order variable per window event per
# formula; the cone must be a strict subset of that.
string(REGEX MATCH "\"encoder.order_vars\": *([0-9]+)" _ "${UNS_STATS}")
if(NOT CMAKE_MATCH_1 OR NOT CONE_EVENTS LESS CMAKE_MATCH_1)
  message(FATAL_ERROR "cone (${CONE_EVENTS} events) is not smaller than the "
          "unsliced encoding (${CMAKE_MATCH_1} order vars):\n${SLC_STATS}")
endif()

message(STATUS "cone-slicing equivalence check passed "
        "(2 SMT techniques x 2 schedules x 2 jobs + prune + atomicity + "
        "deadlock, cone_events=${CONE_EVENTS})")
