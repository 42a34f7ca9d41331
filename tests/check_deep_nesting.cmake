# `fsdep check` on a function returning 10,000 nested parentheses must
# reject the file with the parser's "nesting too deep" diagnostic and
# exit 1, not die on a signal.
#   cmake -DFSDEP=<fsdep binary> -DWORK=<scratch file> -P check_deep_nesting.cmake
string(REPEAT "(" 10000 open)
string(REPEAT ")" 10000 close)
file(WRITE "${WORK}" "int f(int a) {\n  return ${open}a${close};\n}\n")
execute_process(COMMAND "${FSDEP}" check "${WORK}" --seed f:a:t.a
                RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status STREQUAL "1")
  message(FATAL_ERROR "fsdep check exited '${status}', expected 1\n${err}")
endif()
if(NOT err MATCHES "nesting too deep")
  message(FATAL_ERROR "no 'nesting too deep' diagnostic:\n${err}")
endif()
