# ctest helper: runs the command after `--` and passes only when it exits
# with the status given as -DEXPECT=<code>:
#
#   cmake -DEXPECT=2 -P expect_exit.cmake -- <program> [args...]
set(cmd "")
set(after_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_dashes)
    # Keep an argument holding semicolons whole (see srbsg_expect_exit2).
    string(REPLACE ";" "\\;" arg "${CMAKE_ARGV${i}}")
    list(APPEND cmd "${arg}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_dashes TRUE)
  endif()
endforeach()
if(NOT cmd OR NOT DEFINED EXPECT)
  message(FATAL_ERROR "usage: cmake -DEXPECT=<code> -P expect_exit.cmake -- <program> [args...]")
endif()

execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL EXPECT)
  message(FATAL_ERROR "expected exit ${EXPECT}, got ${rc}\n${out}${err}")
endif()
message(STATUS "exit ${rc} as expected: ${err}")
