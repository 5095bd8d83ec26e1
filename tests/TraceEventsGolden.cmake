# Schema check for `rvpredict detect --trace-events` (docs/OBSERVABILITY.md):
# every emitted JSONL line must parse as a JSON object and carry the
# documented required fields for its type —
#
#   window: index, begin, end, cops, seconds
#   cop:    window, first, second, loc_first, loc_second, variable,
#           outcome, stage, and on every solved cop (the ones carrying
#           solve_seconds) the solver fields: solver, formula_nodes,
#           difference_atoms, order_vars, solve_seconds, encode_seconds,
#           witness_seconds, mem_delta_bytes, attempts, cone_events
#
# with cop.stage drawn from the documented prune-provenance vocabulary.
# Checked across --jobs={1,4} x {session, one-shot} so the parallel path
# and the one-shot fallback a quarantined session drops to
# (--inject-faults=session.corrupt) emit the same schema, each under the
# default hybrid tier and under --tier=smt. The workload's one racy pair
# is a WCP short-circuit under hybrid, so only the smt rows solve a cop;
# they must emit at least one solved cop, or the solver fields go
# unchecked.
# Invoked by CTest as
#   cmake -DRVPREDICT=<tool> -DWORKLOAD=<prog.rv> -DOUT_DIR=<dir>
#         -P TraceEventsGolden.cmake

if(NOT DEFINED RVPREDICT OR NOT DEFINED WORKLOAD OR NOT DEFINED OUT_DIR)
  message(FATAL_ERROR "usage: cmake -DRVPREDICT=... -DWORKLOAD=... -DOUT_DIR=... -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

set(STAGES "static-prune;wcp;signature;lockset;quick-check;unsat;budget;ordered;none")
set(SOLVED_FIELDS "solver;formula_nodes;difference_atoms;order_vars;solve_seconds;encode_seconds;witness_seconds;mem_delta_bytes;attempts;cone_events")

function(require_fields LINE TYPE FIELDS LABEL)
  foreach(FIELD ${FIELDS})
    string(JSON VALUE ERROR_VARIABLE JSON_ERR GET "${LINE}" "${FIELD}")
    if(JSON_ERR)
      message(FATAL_ERROR "[${LABEL}] ${TYPE} event missing required "
              "field '${FIELD}':\n${LINE}")
    endif()
  endforeach()
endfunction()

# MIN_SOLVED: how many solved cops the stream must carry at least.
function(check_stream EXTRA LABEL MIN_SOLVED)
  set(EVENTS "${OUT_DIR}/events_${LABEL}.jsonl")
  execute_process(
    COMMAND "${RVPREDICT}" detect "${WORKLOAD}" --seed=1 --schedule=rr
            --trace-events=${EVENTS} ${EXTRA}
    RESULT_VARIABLE RC
    OUTPUT_VARIABLE STDOUT
    ERROR_VARIABLE STDERR)
  if(RC GREATER 1)
    message(FATAL_ERROR "[${LABEL}] rvpredict detect failed (${RC}):\n"
            "${STDOUT}\n${STDERR}")
  endif()
  if(NOT EXISTS "${EVENTS}")
    message(FATAL_ERROR "[${LABEL}] no trace-events file was written")
  endif()
  file(STRINGS "${EVENTS}" LINES)
  list(LENGTH LINES N)
  if(N EQUAL 0)
    message(FATAL_ERROR "[${LABEL}] trace-events file is empty")
  endif()
  set(SAW_WINDOW 0)
  set(SAW_COP 0)
  set(SOLVED 0)
  foreach(LINE ${LINES})
    string(JSON TYPE ERROR_VARIABLE JSON_ERR GET "${LINE}" type)
    if(JSON_ERR)
      message(FATAL_ERROR "[${LABEL}] line does not parse as a JSON "
              "object with a 'type' field:\n${LINE}\n${JSON_ERR}")
    endif()
    if(TYPE STREQUAL "window")
      set(SAW_WINDOW 1)
      require_fields("${LINE}" window "index;begin;end;cops;seconds"
                     "${LABEL}")
    elseif(TYPE STREQUAL "cop")
      set(SAW_COP 1)
      require_fields("${LINE}" cop
                     "window;first;second;loc_first;loc_second;variable;outcome;stage"
                     "${LABEL}")
      string(JSON STAGE GET "${LINE}" stage)
      list(FIND STAGES "${STAGE}" STAGE_IDX)
      if(STAGE_IDX EQUAL -1)
        message(FATAL_ERROR "[${LABEL}] cop event has undocumented "
                "stage '${STAGE}':\n${LINE}")
      endif()
      string(JSON SOLVE_SECONDS ERROR_VARIABLE NOT_SOLVED
             GET "${LINE}" solve_seconds)
      if(NOT NOT_SOLVED)
        math(EXPR SOLVED "${SOLVED} + 1")
        require_fields("${LINE}" cop "${SOLVED_FIELDS}" "${LABEL}")
      endif()
    else()
      message(FATAL_ERROR "[${LABEL}] undocumented event type "
              "'${TYPE}':\n${LINE}")
    endif()
  endforeach()
  if(NOT SAW_WINDOW OR NOT SAW_COP)
    message(FATAL_ERROR "[${LABEL}] stream is missing window or cop "
            "events — vacuous check")
  endif()
  if(SOLVED LESS MIN_SOLVED)
    message(FATAL_ERROR "[${LABEL}] ${SOLVED} solved cop events, expected "
            "at least ${MIN_SOLVED} — the solver fields went unchecked")
  endif()
  message(STATUS "[${LABEL}] ${N} events validated, ${SOLVED} solved cops")
endfunction()

foreach(JOBS 1 4)
  check_stream("--jobs=${JOBS}" "jobs${JOBS}_session" 0)
  check_stream("--jobs=${JOBS};--inject-faults=session.corrupt"
               "jobs${JOBS}_one_shot" 0)
  check_stream("--jobs=${JOBS};--tier=smt" "jobs${JOBS}_session_smt" 1)
  check_stream("--jobs=${JOBS};--tier=smt;--inject-faults=session.corrupt"
               "jobs${JOBS}_one_shot_smt" 1)
endforeach()

message(STATUS "trace-events schema check passed")
