# `fsdep check` on a chain of 50,000 object-like macros, each naming the
# next, must reject the file with the preprocessor's "macro expansion too
# deep" diagnostic (once) and exit 1, not die on a signal.
#   cmake -DFSDEP=<fsdep binary> -DWORK=<scratch file> -P check_deep_macros.cmake
# Macro M<c>_<j> names M<c>_<j+1>, and M<c>_999 names M<c+1>_0; the file is
# written in chunks of 1,000 definitions, which keeps CMake's string work
# linear.
file(WRITE "${WORK}" "")
foreach(c RANGE 0 49)
  math(EXPR next_chunk "${c} + 1")
  set(text "")
  set(prev 0)
  foreach(j RANGE 1 999)
    string(APPEND text "#define M${c}_${prev} M${c}_${j}\n")
    set(prev ${j})
  endforeach()
  string(APPEND text "#define M${c}_999 M${next_chunk}_0\n")
  file(APPEND "${WORK}" "${text}")
endforeach()
file(APPEND "${WORK}" "#define M50_0 1\nint f(int a) {\n  return M0_0;\n}\n")
execute_process(COMMAND "${FSDEP}" check "${WORK}" --seed f:a:t.a
                RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status STREQUAL "1")
  message(FATAL_ERROR "fsdep check exited '${status}', expected 1\n${err}")
endif()
string(REGEX MATCHALL "macro expansion too deep" reports "${err}")
list(LENGTH reports count)
if(NOT count EQUAL 1)
  message(FATAL_ERROR "expected one 'macro expansion too deep' diagnostic, got ${count}:\n${err}")
endif()
