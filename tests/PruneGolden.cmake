# Soundness check for --static-prune: for every technique and schedule,
# `rvpredict detect` with the static pruner installed must print
# byte-identical output (reports, witnesses, summary counts; wall-clock
# timing normalized away) to a run without it — the pruner may only skip
# work, never change results. A separate --stats run guards against the
# vacuous pass by requiring pruned_static > 0 and at least one race.
# Invoked by CTest as
#   cmake -DRVPREDICT=<tool> -DWORKLOAD=<prog.rv> -P PruneGolden.cmake

if(NOT DEFINED RVPREDICT OR NOT DEFINED WORKLOAD)
  message(FATAL_ERROR "usage: cmake -DRVPREDICT=... -DWORKLOAD=... -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

function(run_detect TECHNIQUE SCHEDULE PRUNE EXTRA OUT_VAR)
  execute_process(
    COMMAND "${RVPREDICT}" detect "${WORKLOAD}" --technique=${TECHNIQUE}
            --schedule=${SCHEDULE} --seed=1 --witness=true --jobs=2
            --static-prune=${PRUNE} ${EXTRA}
    RESULT_VARIABLE RC
    OUTPUT_VARIABLE STDOUT
    ERROR_VARIABLE STDERR)
  # Exit 1 just means findings were reported; >=2 is a usage/internal error.
  if(RC GREATER 1)
    message(FATAL_ERROR "rvpredict detect --technique=${TECHNIQUE} "
            "--static-prune=${PRUNE} failed (${RC}):\n${STDOUT}\n${STDERR}")
  endif()
  string(REGEX REPLACE " in [0-9.]+s" "" STDOUT "${STDOUT}")
  set(${OUT_VAR} "${STDOUT}" PARENT_SCOPE)
endfunction()

foreach(TECHNIQUE rv said cp hb)
  foreach(SCHEDULE rr random)
    run_detect(${TECHNIQUE} ${SCHEDULE} false "" BASELINE)
    run_detect(${TECHNIQUE} ${SCHEDULE} true "" PRUNED)
    if(NOT BASELINE STREQUAL PRUNED)
      message(FATAL_ERROR "--static-prune changed output for "
              "technique=${TECHNIQUE} schedule=${SCHEDULE}:\n"
              "--- without ---\n${BASELINE}\n--- with ---\n${PRUNED}")
    endif()
  endforeach()
endforeach()

# Non-vacuity: the workload must report a race AND the pruner must fire.
run_detect(rv rr true "--stats" STATS)
if(NOT STATS MATCHES "1 race")
  message(FATAL_ERROR "prune workload lost its race:\n${STATS}")
endif()
string(REGEX MATCH "pruned_static=([0-9]+)" _ "${STATS}")
if(NOT CMAKE_MATCH_1 OR CMAKE_MATCH_1 EQUAL 0)
  message(FATAL_ERROR "static pruner never fired (pruned_static=0):\n${STATS}")
endif()

message(STATUS "static-prune soundness check passed "
        "(4 techniques x 2 schedules, pruned_static=${CMAKE_MATCH_1})")

# The staticflow catalog row exercises the deeper stages: the MHB stage
# must prune its nested fork/join pairs and the value-range fold must
# drop its constant guard — all without changing any report byte.
set(SAVED_WORKLOAD "${WORKLOAD}")
set(WORKLOAD "bench:staticflow")
foreach(TECHNIQUE rv said hb)
  run_detect(${TECHNIQUE} rr false "" BASELINE)
  run_detect(${TECHNIQUE} rr true "" PRUNED)
  if(NOT BASELINE STREQUAL PRUNED)
    message(FATAL_ERROR "--static-prune changed staticflow output for "
            "technique=${TECHNIQUE}:\n"
            "--- without ---\n${BASELINE}\n--- with ---\n${PRUNED}")
  endif()
endforeach()

# Under --tier=smt: the default hybrid tier short-circuits every staticflow
# COP past the encoder, and analysis.ranges_folded counts decision-path
# encodes only.
execute_process(
  COMMAND "${RVPREDICT}" detect bench:staticflow --static-prune --tier=smt
          --stats-json=-
  RESULT_VARIABLE RC
  OUTPUT_VARIABLE STATS_JSON
  ERROR_VARIABLE STDERR)
if(RC GREATER 1)
  message(FATAL_ERROR "staticflow stats run failed (${RC}):\n${STDERR}")
endif()
string(REGEX MATCH "\"analysis.pruned_static_mhb\":([0-9]+)" _ "${STATS_JSON}")
if(NOT CMAKE_MATCH_1 OR CMAKE_MATCH_1 EQUAL 0)
  message(FATAL_ERROR "MHB prune stage never fired on staticflow:\n${STATS_JSON}")
endif()
set(MHB_PRUNED ${CMAKE_MATCH_1})
string(REGEX MATCH "\"analysis.ranges_folded\":([0-9]+)" _ "${STATS_JSON}")
if(NOT CMAKE_MATCH_1 OR CMAKE_MATCH_1 EQUAL 0)
  message(FATAL_ERROR "value-range fold never fired on staticflow:\n${STATS_JSON}")
endif()
set(WORKLOAD "${SAVED_WORKLOAD}")

message(STATUS "staticflow stage check passed (pruned_static_mhb="
        "${MHB_PRUNED}, ranges_folded=${CMAKE_MATCH_1})")
