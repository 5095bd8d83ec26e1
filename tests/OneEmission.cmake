# The one-emission boundary (docs/OBSERVABILITY.md): the solver layer, the
# static analyses, the race policy, the WCP tier, the resilience layer and
# the encoder's files return what they did, and the window driver counts
# it and renders its views. None of them may name the metrics registry,
# the Perfetto collector or the trace-event sink.
# Invoked by CTest as
#   cmake -DSOURCE_DIR=<repo>/src -P OneEmission.cmake

if(NOT DEFINED SOURCE_DIR)
  message(FATAL_ERROR "usage: cmake -DSOURCE_DIR=... -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

set(GROUPS
  "smt/*.h;smt/*.cpp"
  "analysis/*.h;analysis/*.cpp"
  "detect/Detect.*"
  "detect/RaceEncoder.*"
  "detect/Resilience.*"
  "detect/Wcp.*"
  "detect/WindowEncoding.*"
  "detect/WitnessChecker.*")
set(OFFENDERS "")
foreach(GROUP IN LISTS GROUPS)
  # A group that matches nothing means the layout moved: fail rather than
  # pass on an empty set.
  set(FILES "")
  foreach(PATTERN IN ITEMS ${GROUP})
    file(GLOB MATCHED "${SOURCE_DIR}/${PATTERN}")
    list(APPEND FILES ${MATCHED})
  endforeach()
  if(NOT FILES)
    message(FATAL_ERROR "no file matches ${GROUP} under ${SOURCE_DIR}")
  endif()
  foreach(FILE IN LISTS FILES)
    file(STRINGS "${FILE}" HITS
         REGEX "MetricsRegistry|ProfileCollector|TraceEventSink")
    if(HITS)
      list(APPEND OFFENDERS "${FILE}")
    endif()
  endforeach()
endforeach()

if(OFFENDERS)
  list(JOIN OFFENDERS "\n  " LIST)
  message(FATAL_ERROR "a telemetry view named below the window driver:\n  ${LIST}")
endif()
message(STATUS "one-emission boundary holds")
