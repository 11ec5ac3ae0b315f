# CLI contract: `run` is the one verb that builds and runs a spec. The
# retired verbs point, sweep, saturation, replications, rerun and replay
# are unknown commands. `--emit-spec`, `--engine` (any verb),
# `--queue-discipline` (a second spelling of `--discipline`),
# `--whole-file` on a trace replay (every replay streams) and verify's
# `--mode`, `--rel-tol` and `--abs-tol` (bit-exact is the only comparison)
# are not options.
# Each must exit 2 with an "unknown command" or "unknown option" message,
# never be accepted and ignored.
#
#   cmake -DMCSIM=<path to mcsim> -DSCENARIO_DIR=<data/scenarios>
#         -DTRACE_DIR=<data/archive_samples> -P cli_removed_options.cmake

function(expect_usage_error message)
  list(JOIN ARGN " " command)
  execute_process(COMMAND ${MCSIM} ${ARGN}
                  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT status EQUAL 2)
    message(FATAL_ERROR "`mcsim ${command}` exited ${status}, expected 2\n${out}${err}")
  endif()
  string(FIND "${err}" "${message}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "`mcsim ${command}` did not say \"${message}\":\n${err}")
  endif()
endfunction()

function(expect_unknown_option option)
  expect_usage_error("unknown option --${option}" ${ARGN})
endfunction()

set(smoke "${SCENARIO_DIR}/smoke.json")
set(log "${TRACE_DIR}/sdsc_sp2_style.swf")
foreach(verb point sweep saturation replications rerun replay)
  expect_usage_error("unknown command '${verb}'" ${verb} "${smoke}")
endforeach()
expect_unknown_option(emit-spec run --emit-spec=unused.json)
expect_unknown_option(engine run --sim-jobs=100 --engine=serial)
expect_unknown_option(engine run "${smoke}" --engine=serial)
expect_unknown_option(engine run --trace-in=${log} --engine=parallel)
expect_unknown_option(engine verify --engine=serial)
expect_unknown_option(queue-discipline run --sim-jobs=100 --queue-discipline=sjf)
expect_unknown_option(queue-discipline run "${smoke}" --queue-discipline=sjf)
expect_unknown_option(whole-file run --trace-in=${log} --whole-file)
expect_unknown_option(mode verify --mode=statistical)
expect_unknown_option(rel-tol verify --rel-tol=1e-6)
expect_unknown_option(abs-tol verify --abs-tol=1e-9)
