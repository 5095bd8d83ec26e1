# Every tool bounds --jobs (readJobs, support/CommandLine.h): a negative
# value or one above ThreadPool::MaxWorkers (256) is a usage error, exit 2
# with one diagnostic, before any thread pool is built. Only rejected
# values are passed here, so a regression fails the check instead of
# spawning a pool of that size.
# Invoked by CTest as
#   cmake -DRVPREDICT=<bin> -DRVPREDICTD=<bin> -DTABLE1=<bin>
#         -DGOLDEN_DIR=<dir> -DOUT_DIR=<dir> -P JobsBound.cmake

foreach(VAR RVPREDICT RVPREDICTD TABLE1 GOLDEN_DIR OUT_DIR)
  if(NOT DEFINED ${VAR})
    message(FATAL_ERROR "usage: cmake -DRVPREDICT=... -DRVPREDICTD=... -DTABLE1=... -DGOLDEN_DIR=... -DOUT_DIR=... -P ${CMAKE_CURRENT_LIST_FILE}")
  endif()
endforeach()

function(expect_rejected LABEL)
  execute_process(
    COMMAND ${ARGN}
    RESULT_VARIABLE RC
    OUTPUT_VARIABLE STDOUT
    ERROR_VARIABLE STDERR
    TIMEOUT 30)
  if(NOT RC EQUAL 2)
    message(FATAL_ERROR "${LABEL}: expected exit 2, got ${RC}\n"
            "stdout:\n${STDOUT}\nstderr:\n${STDERR}")
  endif()
  string(FIND "${STDERR}" "--jobs must be between 0 and 256" POS)
  if(POS EQUAL -1)
    message(FATAL_ERROR "${LABEL}: stderr missing the --jobs diagnostic:\n"
            "${STDERR}")
  endif()
endfunction()

foreach(JOBS -1 257)
  expect_rejected("rvpredict detect --jobs=${JOBS}"
                  "${RVPREDICT}" detect "${GOLDEN_DIR}/quiet.txt"
                  --jobs=${JOBS})
  expect_rejected("table1 --jobs=${JOBS}"
                  "${TABLE1}" --bench=none --jobs=${JOBS})
  expect_rejected("rvpredictd --jobs=${JOBS}"
                  "${RVPREDICTD}" --socket=${OUT_DIR}/jobs_bound.sock
                  --jobs=${JOBS})
endforeach()

message(STATUS "--jobs bound check passed")
