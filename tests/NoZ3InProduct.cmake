# Z3 is a test oracle (src/smt/Z3Solver.h), never part of the product: no
# product binary may link libz3, dynamically (a `libz3` NEEDED entry) or
# statically (Z3's C API symbols). rvp_tests links it whenever the build
# found Z3, so when ORACLE is given it must show the same marks — proof
# that the check can see them. Invoked by CTest as
#   cmake -DPRODUCT=<bin>[,<bin>...] [-DORACLE=<rvp_tests>] -P NoZ3InProduct.cmake

if(NOT DEFINED PRODUCT)
  message(FATAL_ERROR "usage: cmake -DPRODUCT=... [-DORACLE=...] -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

set(MARKS "libz3|Z3_mk_context")

function(z3_marks BIN OUT)
  if(NOT EXISTS "${BIN}")
    message(FATAL_ERROR "no such binary: ${BIN}")
  endif()
  file(STRINGS "${BIN}" HITS REGEX "${MARKS}" LIMIT_COUNT 1)
  set(${OUT} "${HITS}" PARENT_SCOPE)
endfunction()

string(REPLACE "," ";" PRODUCT "${PRODUCT}")
foreach(BIN IN LISTS PRODUCT)
  z3_marks("${BIN}" HITS)
  if(HITS)
    message(FATAL_ERROR "${BIN} links Z3 (found '${HITS}'); only the "
            "tests and bench_solver may link rvp_z3")
  endif()
endforeach()

if(ORACLE)
  z3_marks("${ORACLE}" HITS)
  if(NOT HITS)
    message(FATAL_ERROR "${ORACLE} shows no Z3 marks although the build "
            "found Z3: the check would miss a product binary that links it")
  endif()
endif()

message(STATUS "no product binary links Z3")
