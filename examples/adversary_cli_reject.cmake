# Runs adversary_cli on an alphabet that repeats a graph and checks the
# clean rejection: exit code 2 (not an abort) and the MessageAdversary
# error, verbatim, on stderr.
#
#   cmake -DCLI=path/to/adversary_cli -P adversary_cli_reject.cmake
execute_process(COMMAND ${CLI} 2 "0->1|1->0|0->1"
  RESULT_VARIABLE result
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
set(expected
  "adversary_cli: message adversary 'cli': letters 0 and 2 are the same graph {0->1}\n")
if(NOT result STREQUAL "2")
  message(FATAL_ERROR "expected exit code 2, got '${result}'\nstderr: ${err}")
endif()
if(NOT err STREQUAL expected)
  message(FATAL_ERROR "unexpected stderr:\n${err}\nexpected:\n${expected}")
endif()
