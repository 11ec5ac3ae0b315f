# CLI contract: the run mode comes from the base spec (run's FILE, or a
# point run without one), and a flag that mode or the run's workload
# (synthetic, or a trace from the file or --trace-in) never reads — a spec
# flag, or an output the run does not write — exits 2 naming the flag and
# the run, instead of being accepted and ignored. The same flags run
# (exit 0) where the mode reads them, and the sweep flags replace a file's
# explicit grid.
#
#   cmake -DMCSIM=<path to mcsim> -DSCENARIO_DIR=<data/scenarios>
#         -DTRACE_DIR=<data/archive_samples> -DWORK_DIR=<scratch dir>
#         -P cli_unread_flags.cmake

function(expect_unread flag run)
  list(JOIN ARGN " " command)
  execute_process(COMMAND ${MCSIM} ${ARGN}
                  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT status EQUAL 2)
    message(FATAL_ERROR "`mcsim ${command}` exited ${status}, expected 2\n${out}${err}")
  endif()
  string(FIND "${err}" "--${flag} is not read by a ${run} run" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "`mcsim ${command}` did not name --${flag} and the ${run} run:\n${err}")
  endif()
endfunction()

function(expect_runs)
  list(JOIN ARGN " " command)
  execute_process(COMMAND ${MCSIM} ${ARGN}
                  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "`mcsim ${command}` exited ${status}, expected 0\n${out}${err}")
  endif()
  set(run_output "${out}" PARENT_SCOPE)
endfunction()

set(smoke "${SCENARIO_DIR}/smoke.json")
set(sweep "${SCENARIO_DIR}/fig3_gs_limit16.json")
set(saturation "${SCENARIO_DIR}/table3_gs_limit16_saturation.json")
set(replications "${SCENARIO_DIR}/replications_ls_055.json")
set(log "${TRACE_DIR}/sdsc_sp2_style.swf")

# A point run: no file, a point file, a trace replay.
foreach(flag from to step)
  expect_unread(${flag} point run --${flag}=0.4)
endforeach()
expect_unread(reps point run --reps=3)
expect_unread(completions point run --completions=100)
expect_unread(jobs point run --sim-jobs=100 --jobs=2)
expect_unread(jobs point run "${smoke}" --jobs=2)
expect_unread(jobs point run --trace-in=${log} --jobs=2)
expect_unread(from point run --trace-in=${log} --from=0.4)
expect_unread(gnuplot point run --sim-jobs=100 --gnuplot=${WORK_DIR})

# A sweep reads its grid, not a single utilization or a fixed trace scale.
expect_unread(utilization sweep run "${sweep}" --utilization=0.5)
expect_unread(reps sweep run "${sweep}" --reps=3)
expect_unread(completions sweep run "${sweep}" --completions=100)
expect_unread(scale sweep run "${sweep}" --scale=0.5)
expect_unread(metrics-out sweep run "${sweep}" --metrics-out=${WORK_DIR}/unused.json)

# Saturation keeps a constant backlog of synthetic jobs: no load, no run
# length, no trace, one run.
expect_unread(utilization saturation run "${saturation}" --utilization=0.5)
expect_unread(sim-jobs saturation run "${saturation}" --sim-jobs=100)
expect_unread(jobs saturation run "${saturation}" --completions=100 --jobs=2)
expect_unread(from saturation run "${saturation}" --from=0.4)
expect_unread(trace-in saturation run "${saturation}" --trace-in=${log})
expect_unread(scale saturation run "${saturation}" --scale=0.5)
expect_unread(trace-out saturation run "${saturation}" --trace-out=${WORK_DIR}/unused.swf)

expect_unread(from replications run "${replications}" --from=0.4)
expect_unread(completions replications run "${replications}" --completions=100)
expect_unread(events-out replications run "${replications}" --events-out=${WORK_DIR}/unused.bin)

# A trace replay takes its jobs, sizes and load from the log; a synthetic
# run has no log to scale or re-sort. The workload comes from the base or
# from --trace-in.
set(trace_point "${SCENARIO_DIR}/trace_das1_gs_replay.json")
expect_unread(sim-jobs "trace point" run --trace-in=${log} --sim-jobs=5)
expect_unread(das64 "trace point" run --trace-in=${log} --das64)
expect_unread(utilization "trace point" run --trace-in=${log} --utilization=0.5)
expect_unread(unbalanced "trace point" run --trace-in=${log} --unbalanced)
expect_unread(sim-jobs "trace point" run "${trace_point}" --sim-jobs=5)
expect_unread(sim-jobs "trace point" run "${smoke}" --trace-in=${log} --sim-jobs=5)
expect_unread(lookahead "synthetic point" run --sim-jobs=100 --lookahead=8)
expect_unread(lookahead "synthetic sweep" run "${sweep}" --lookahead=8)
expect_unread(scale "synthetic point" run --sim-jobs=100 --scale=0.5)

# Where the mode reads them, the same flags run.
expect_runs(run --sim-jobs=200 --utilization=0.3)
expect_runs(run "${sweep}" --from=0.3 --to=0.35 --step=0.05 --sim-jobs=200 --jobs=2)
expect_runs(run "${saturation}" --completions=100)
expect_runs(run "${replications}" --reps=2 --sim-jobs=200 --utilization=0.3 --jobs=1)
expect_runs(run --trace-in=${log} --scale=2 --lookahead=64)

# A file with an explicit grid: --from/--to/--step replace it.
set(grid "${WORK_DIR}/cli_unread_flags_grid.json")
file(WRITE "${grid}" [=[{"run": {"mode": "sweep", "sweep": {"grid": [0.3, 0.4]}, "sim_jobs": 300}}]=])
expect_runs(run "${grid}" --from=0.5 --to=0.6 --step=0.1)
foreach(point 0.500 0.600)
  string(FIND "${run_output}" "      ${point}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "the sweep flags did not replace the explicit grid:\n${run_output}")
  endif()
endforeach()
string(FIND "${run_output}" "      0.300" at)
if(NOT at EQUAL -1)
  message(FATAL_ERROR "the explicit grid was swept despite --from/--to/--step:\n${run_output}")
endif()
