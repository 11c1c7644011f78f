# ctest helper: runs PROGRAM twice, with ARGS and with ARGS followed by
# ALT_ARGS (each a space-separated argument string), and passes only when
# both runs exit 0 and print byte-identical stdout:
#
#   cmake -DPROGRAM=<exe> "-DARGS=<args>" "-DALT_ARGS=<args>" -P same_stdout.cmake
if(NOT DEFINED PROGRAM OR NOT DEFINED ALT_ARGS)
  message(FATAL_ERROR "usage: cmake -DPROGRAM=<exe> -DARGS=<args> -DALT_ARGS=<args> "
                      "-P same_stdout.cmake")
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")
separate_arguments(alt_args UNIX_COMMAND "${ALT_ARGS}")

execute_process(COMMAND ${PROGRAM} ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "${PROGRAM} ${ARGS} exited ${rc}\n${err}")
endif()
execute_process(COMMAND ${PROGRAM} ${args} ${alt_args}
                RESULT_VARIABLE alt_rc OUTPUT_VARIABLE alt_out ERROR_VARIABLE alt_err)
if(NOT alt_rc STREQUAL "0")
  message(FATAL_ERROR "${PROGRAM} ${ARGS} ${ALT_ARGS} exited ${alt_rc}\n${alt_err}")
endif()
if(NOT out STREQUAL alt_out)
  message(FATAL_ERROR "stdout differs with ${ALT_ARGS}\n--- ${ARGS}\n${out}"
                      "--- ${ARGS} ${ALT_ARGS}\n${alt_out}")
endif()
message(STATUS "identical stdout with and without ${ALT_ARGS}")
