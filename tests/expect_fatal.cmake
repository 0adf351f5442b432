# Run EXE with the space-separated ARGS and require what a rejected
# command line must produce: a non-zero exit and a "fatal:" line on
# stderr (not an abort, and not a run of some other machine).
#   cmake -DEXE=<binary> -DARGS="<args>" -P expect_fatal.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(status EQUAL 0)
    message(FATAL_ERROR "'${ARGS}' exited 0:\n${out}${err}")
endif()
if(NOT status MATCHES "^[0-9]+$")
    message(FATAL_ERROR "'${ARGS}' did not exit cleanly (${status}):\n${err}")
endif()
if(NOT err MATCHES "fatal:")
    message(FATAL_ERROR "'${ARGS}' printed no 'fatal:' line:\n${err}")
endif()
