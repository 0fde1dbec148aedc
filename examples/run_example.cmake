# Runs one example as a ctest test (label "examples"):
#
#   cmake -DEXAMPLE=<binary> -DROWS=<n> [-DEXPECT=<text>] -P run_example.cmake
#
# Passes when the example exits 0, prints exactly ROWS recovery rows (one
# "recovery of ..." line per recovery action, rebuilt from the trace) and,
# if given, prints EXPECT somewhere on stdout.
execute_process(COMMAND "${EXAMPLE}" OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} exited with '${rc}'; stdout:\n${out}")
endif()
string(REGEX MATCHALL "recovery of " rows "${out}")
list(LENGTH rows count)
if(NOT count EQUAL ROWS)
  message(FATAL_ERROR
    "${EXAMPLE} printed ${count} recovery rows, expected ${ROWS}; stdout:\n${out}")
endif()
if(DEFINED EXPECT)
  string(FIND "${out}" "${EXPECT}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${EXAMPLE} never printed '${EXPECT}'; stdout:\n${out}")
  endif()
endif()
