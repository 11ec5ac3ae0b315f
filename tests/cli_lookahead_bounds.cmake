# CLI contract: --lookahead sets a 32-bit window. A larger value is a usage
# error (exit 2) naming the flag, never a window wrapped modulo 2^32
# (2^32 used to become 0, the default; 2^32 + 1 a one-record window). The
# largest value replays: the window is not allocated up front.
#
#   cmake -DMCSIM=<path to mcsim> -DTRACE_DIR=<data/archive_samples>
#         -P cli_lookahead_bounds.cmake

function(expect_exit code)
  list(JOIN ARGN " " command)
  execute_process(COMMAND ${MCSIM} ${ARGN}
                  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT status EQUAL code)
    message(FATAL_ERROR "`mcsim ${command}` exited ${status}, expected ${code}\n${out}${err}")
  endif()
  if(code EQUAL 2)
    string(FIND "${err}" "--lookahead" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "`mcsim ${command}` did not name --lookahead:\n${err}")
    endif()
  endif()
endfunction()

set(log "${TRACE_DIR}/sdsc_sp2_style.swf")
expect_exit(2 run --trace-in=${log} --lookahead=4294967296)
expect_exit(2 run --trace-in=${log} --lookahead=4294967297)
expect_exit(0 run --trace-in=${log} --lookahead=4294967295)
