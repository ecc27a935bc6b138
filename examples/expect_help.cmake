# ctest helper: `BIN --help` must exit 0 and print the usage on stdout.
#   cmake -DBIN=<train_cli> -P expect_help.cmake
execute_process(COMMAND ${BIN} --help
                RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "--help: exit status ${status}, expected 0\n${err}")
endif()
string(FIND "${out}" "usage: " at)
if(at EQUAL -1)
  message(FATAL_ERROR "--help: stdout has no usage line:\n${out}")
endif()
