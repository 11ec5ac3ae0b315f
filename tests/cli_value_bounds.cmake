# CLI contract: a numeric flag stored in fewer than 64 bits is bounded by
# what it is stored in. A larger value is a usage error (exit 2) naming
# the flag, never a value wrapped modulo 2^32 (`--limit=4294967312` used to
# run as limit 16), an int overflow (`submit --timeout`, converted to
# milliseconds) or a shift past 64 bits (`serve --cache-mb`, converted to
# bytes). The largest accepted value gets past the check: the submit and
# serve cases then fail to reach or bind their socket (exit 1), so no
# daemon is started and no client waits.
#
#   cmake -DMCSIM=<path to mcsim> -DSCENARIO_DIR=<data/scenarios>
#         -DTRACE_DIR=<data/archive_samples> -DWORK_DIR=<scratch dir>
#         -P cli_value_bounds.cmake

function(expect_exit code flag)
  list(JOIN ARGN " " command)
  execute_process(COMMAND ${MCSIM} ${ARGN}
                  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT status EQUAL code)
    message(FATAL_ERROR "`mcsim ${command}` exited ${status}, expected ${code}\n${out}${err}")
  endif()
  if(code EQUAL 2)
    string(FIND "${err}" "--${flag} must be at most" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "`mcsim ${command}` did not name --${flag}:\n${err}")
    endif()
  endif()
endfunction()

set(log "${TRACE_DIR}/sdsc_sp2_style.swf")
set(no_socket "${WORK_DIR}/no-such-directory/mcsim.sock")

expect_exit(2 limit run --limit=4294967312 --sim-jobs=200)
expect_exit(2 reps run "${SCENARIO_DIR}/replications_ls_055.json" --reps=4294967297)
expect_exit(2 jobs run "${SCENARIO_DIR}/fig3_sc.json" --jobs=4294967296)
expect_exit(2 jobs verify --jobs=4294967296)
expect_exit(2 jobs serve --socket=${no_socket} --jobs=4294967296)
expect_exit(2 capacity trace-stats "${log}" --capacity=4294967424)
expect_exit(2 timeout submit "${SCENARIO_DIR}/smoke.json" --socket=${no_socket}
            --timeout=2147484)
expect_exit(1 timeout submit "${SCENARIO_DIR}/smoke.json" --socket=${no_socket}
            --timeout=2147483)
expect_exit(2 cache-mb serve --socket=${no_socket} --cache-mb=17592186044416)
expect_exit(1 cache-mb serve --socket=${no_socket} --cache-mb=17592186044415)
