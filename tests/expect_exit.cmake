# Runs a command and fails unless it exits with EXIT_CODE and its output
# (stdout and stderr together) matches OUTPUT_REGEX. For ctests of a
# binary's error path, where PASS_REGULAR_EXPRESSION alone would ignore
# the exit code:
#
#   cmake -DCOMMAND=prog|arg1|arg2 -DEXIT_CODE=2 -DOUTPUT_REGEX=... -P expect_exit.cmake
#
# COMMAND separates the program and its arguments with '|'.
string(REPLACE "|" ";" cmd "${COMMAND}")
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
message("${out}${err}")
if(NOT rc STREQUAL EXIT_CODE)
  message(FATAL_ERROR "exit code '${rc}', expected ${EXIT_CODE}")
endif()
if(NOT "${out}${err}" MATCHES "${OUTPUT_REGEX}")
  message(FATAL_ERROR "output does not match '${OUTPUT_REGEX}'")
endif()
