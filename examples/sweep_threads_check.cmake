# --sweep-threads reaches the example's Session: omission_sweep 2 at 1
# and 3 threads must print the thread count it ran on and write
# byte-identical --sweep-json documents, and an empty --sweep-json path
# must exit 2 instead of writing nothing.
#
#   cmake -DSWEEP=path/to/omission_sweep -DWORK_DIR=dir -P sweep_threads_check.cmake
file(MAKE_DIRECTORY ${WORK_DIR})
foreach(threads 1 3)
  execute_process(COMMAND ${SWEEP} 2 --sweep-threads=${threads}
      --sweep-json=${WORK_DIR}/sweep-${threads}.json
    RESULT_VARIABLE result OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(FIND "${out}" "(${threads} thread(s))" at)
  if(NOT result EQUAL 0 OR at EQUAL -1)
    message(FATAL_ERROR "--sweep-threads=${threads}: exit ${result}, "
      "expected 0 and \"(${threads} thread(s))\" on stdout:\n${out}${err}")
  endif()
endforeach()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
  ${WORK_DIR}/sweep-1.json ${WORK_DIR}/sweep-3.json RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR "--sweep-json differs between 1 and 3 threads")
endif()
execute_process(COMMAND ${SWEEP} 2 --sweep-json=
  RESULT_VARIABLE result ERROR_VARIABLE err)
string(FIND "${err}" "--sweep-json needs a non-empty path" at)
if(NOT result EQUAL 2 OR at EQUAL -1)
  message(FATAL_ERROR "--sweep-json=: expected exit 2 and the usage "
    "message, got exit ${result}:\n${err}")
endif()
