# ctest helper: runs `BIN ARGS` (default `--kfac FLAG VALUE`) and passes only
# if it exits with status 2 and its stderr names FLAG and the rejected
# value, quoted as 'VALUE'.
#   cmake -DBIN=<train_cli> -DFLAG=--epochs -DVALUE=abc -P expect_usage_error.cmake
#   cmake -DBIN=<scaling_study> -DFLAG=depth -DVALUE=abc -DARGS=abc -P ...
if(NOT DEFINED ARGS)
  set(ARGS --kfac ${FLAG} ${VALUE})
endif()
execute_process(COMMAND ${BIN} ${ARGS}
                RESULT_VARIABLE status ERROR_VARIABLE err OUTPUT_QUIET)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "${FLAG} ${VALUE}: exit status ${status}, expected 2\n${err}")
endif()
foreach(needle "${FLAG}" "'${VALUE}'")
  string(FIND "${err}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${FLAG} ${VALUE}: stderr does not contain ${needle}:\n${err}")
  endif()
endforeach()
