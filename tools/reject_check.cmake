# Usage-error check, run via `cmake -P`: `topocon ARGS...` must exit 2
# and name the offending argument on stderr -- a flag the CLI does not
# know is an error, never silently ignored.
#
# Inputs (all -D):
#   TOPOCON_CLI  path to the topocon binary
#   ARGS         the command line after the binary (semicolon-separated)
#   MESSAGE      text stderr must contain

foreach(var TOPOCON_CLI ARGS MESSAGE)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}")
  endif()
endforeach()

execute_process(
  COMMAND ${TOPOCON_CLI} ${ARGS}
  RESULT_VARIABLE result
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT result EQUAL 2)
  message(FATAL_ERROR
    "topocon ${ARGS}: expected exit 2, got ${result}\n${out}${err}")
endif()
string(FIND "${err}" "${MESSAGE}" at)
if(at EQUAL -1)
  message(FATAL_ERROR
    "topocon ${ARGS}: stderr lacks \"${MESSAGE}\":\n${err}")
endif()
