# `bench_ledger.py check` must fail, naming the ratio, when the benchmark
# output lacks a benchmark that a baselined ratio needs: a ratio the run
# did not produce is never skipped silently. The control run, with every
# benchmark present at its baseline value, must pass.
#   cmake -DPYTHON=<python3> -DLEDGER=<bench_ledger.py> -DBASELINES=<dir>
#         -DWORK=<scratch dir> -P check_ledger_missing_ratio.cmake
# Only the scale suite is fed; the other suites' inputs do not exist, so
# the ledger skips them.
file(MAKE_DIRECTORY "${WORK}")
file(READ "${BASELINES}/scale.json" baseline)
set(entries "")
foreach(name "BM_Table5IntraSeed_mean" "BM_AmplifiedInter/100_mean" "BM_AmplifiedIntra/100_mean")
  string(JSON value GET "${baseline}" absolute_ms "${name}")
  list(APPEND entries "{\"name\": \"${name}\", \"aggregate_name\": \"mean\", \"real_time\": ${value}}")
endforeach()

function(run_ledger file expected_status)
  execute_process(COMMAND "${PYTHON}" "${LEDGER}" check --baselines "${BASELINES}"
                          --scale "${file}" --pipeline "${WORK}/absent.json"
                          --campaign "${WORK}/absent.json" --serve "${WORK}/absent.json"
                  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT status STREQUAL expected_status)
    message(FATAL_ERROR "bench_ledger.py check on ${file} exited '${status}', "
                        "expected ${expected_status}\n${out}\n${err}")
  endif()
  set(ledger_err "${err}" PARENT_SCOPE)
endfunction()

list(JOIN entries ", " all)
file(WRITE "${WORK}/complete.json" "{\"benchmarks\": [${all}]}\n")
run_ledger("${WORK}/complete.json" 0)

# BM_AmplifiedIntra/100 is gone, so inter_overhead cannot be computed.
list(REMOVE_AT entries 2)
list(JOIN entries ", " partial)
file(WRITE "${WORK}/missing.json" "{\"benchmarks\": [${partial}]}\n")
run_ledger("${WORK}/missing.json" 1)
if(NOT ledger_err MATCHES "scale/inter_overhead has a baseline but this run did not produce it")
  message(FATAL_ERROR "the failure does not name the missing ratio:\n${ledger_err}")
endif()
