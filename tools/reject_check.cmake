# Error-exit check, run via `cmake -P`: `topocon ARGS...` must exit with
# EXIT and name the problem on stderr -- a flag the CLI does not know is
# an error, never silently ignored, and a failure is never an abort.
#
# Inputs (all -D):
#   TOPOCON_CLI  path to the topocon binary
#   ARGS         the command line after the binary (semicolon-separated)
#   MESSAGE      text stderr must contain
#   EXIT         expected exit code (default 2, a usage error)
#   ULIMIT_V     optional: run under `ulimit -s 8192 -v ULIMIT_V` (KiB)

foreach(var TOPOCON_CLI ARGS MESSAGE)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}")
  endif()
endforeach()
if(NOT DEFINED EXIT)
  set(EXIT 2)
endif()

set(command ${TOPOCON_CLI} ${ARGS})
if(DEFINED ULIMIT_V)
  list(JOIN ARGS " " args)
  set(command sh -c
    "ulimit -s 8192 && ulimit -v ${ULIMIT_V} && exec \"$0\" ${args}"
    ${TOPOCON_CLI})
endif()
execute_process(
  COMMAND ${command}
  RESULT_VARIABLE result
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT result EQUAL EXIT)
  message(FATAL_ERROR
    "topocon ${ARGS}: expected exit ${EXIT}, got ${result}\n${out}${err}")
endif()
string(FIND "${err}" "${MESSAGE}" at)
if(at EQUAL -1)
  message(FATAL_ERROR
    "topocon ${ARGS}: stderr lacks \"${MESSAGE}\":\n${err}")
endif()
