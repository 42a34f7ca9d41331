# `fsdep ARGS` must exit 0 and print exactly the bytes of GOLDEN.
#   cmake -DFSDEP=<fsdep binary> "-DARGS=<args>" -DGOLDEN=<file>
#         -DWORK=<scratch file> -P check_golden.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${FSDEP}" ${args}
                RESULT_VARIABLE status OUTPUT_FILE "${WORK}" ERROR_VARIABLE err)
if(NOT status STREQUAL "0")
  message(FATAL_ERROR "fsdep ${ARGS} exited '${status}', expected 0\n${err}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${WORK}" "${GOLDEN}"
                RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR "stdout of fsdep ${ARGS} (${WORK}) differs from ${GOLDEN}")
endif()
