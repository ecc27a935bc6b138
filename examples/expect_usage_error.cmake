# ctest helper: runs `BIN --kfac FLAG VALUE` and passes only if it exits
# with status 2 and names FLAG on stderr.
#   cmake -DBIN=<train_cli> -DFLAG=--epochs -DVALUE=abc -P expect_usage_error.cmake
execute_process(COMMAND ${BIN} --kfac ${FLAG} ${VALUE}
                RESULT_VARIABLE status ERROR_VARIABLE err OUTPUT_QUIET)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "${FLAG} ${VALUE}: exit status ${status}, expected 2\n${err}")
endif()
string(FIND "${err}" "${FLAG}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${FLAG} ${VALUE}: stderr does not name the flag:\n${err}")
endif()
