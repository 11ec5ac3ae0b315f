# CLI contract: `--engine` (any verb), `--jobs` on the single-run verbs
# point and saturation, `--queue-discipline` (a second spelling of
# `--discipline`) and `--whole-file` on replay (every replay streams) are
# not options. Each must exit 2 with an "unknown option" message, never be
# accepted and ignored.
#
#   cmake -DMCSIM=<path to mcsim> -DSCENARIO_DIR=<data/scenarios>
#         -P cli_removed_options.cmake

function(expect_unknown_option option)
  list(JOIN ARGN " " command)
  execute_process(COMMAND ${MCSIM} ${ARGN}
                  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT status EQUAL 2)
    message(FATAL_ERROR "`mcsim ${command}` exited ${status}, expected 2\n${out}${err}")
  endif()
  string(FIND "${err}" "unknown option --${option}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "`mcsim ${command}` did not reject --${option}:\n${err}")
  endif()
endfunction()

set(smoke "${SCENARIO_DIR}/smoke.json")
expect_unknown_option(engine point --sim-jobs=100 --engine=serial)
expect_unknown_option(engine run "${smoke}" --engine=serial)
expect_unknown_option(engine replay "${smoke}" --engine=parallel)
expect_unknown_option(engine verify --engine=serial)
expect_unknown_option(jobs point --sim-jobs=100 --jobs=2)
expect_unknown_option(jobs saturation --completions=100 --jobs=2)
expect_unknown_option(queue-discipline point --sim-jobs=100 --queue-discipline=sjf)
expect_unknown_option(queue-discipline run "${smoke}" --queue-discipline=sjf)
expect_unknown_option(whole-file replay "${smoke}" --whole-file)
