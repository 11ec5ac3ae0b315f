# CLI contract: a sweep's --gnuplot=DIR is made (parents too) before the
# sweep starts, and a path that cannot be a directory exits 2 at once,
# before any point runs, instead of failing after the whole sweep.
#
#   cmake -DMCSIM=<path to mcsim> -DSCENARIO_DIR=<data/scenarios>
#         -DWORK_DIR=<scratch dir> -P cli_gnuplot_dir.cmake

set(sweep "${SCENARIO_DIR}/fig3_sc.json" --from=0.3 --to=0.4 --step=0.1 --sim-jobs=300)
set(root "${WORK_DIR}/cli_gnuplot_dir")
file(REMOVE_RECURSE "${root}")
file(MAKE_DIRECTORY "${root}")

# A directory that does not exist yet, two levels deep.
execute_process(COMMAND ${MCSIM} run ${sweep} --gnuplot=${root}/new/plots/
                RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "--gnuplot into a new directory exited ${status}:\n${out}${err}")
endif()
foreach(file mcsim_sweep.dat mcsim_sweep.gp)
  if(NOT EXISTS "${root}/new/plots/${file}")
    message(FATAL_ERROR "--gnuplot did not write ${file} into the new directory:\n${out}")
  endif()
endforeach()

# A path below a regular file can never be a directory.
file(WRITE "${root}/plain" "")
execute_process(COMMAND ${MCSIM} run ${sweep} --gnuplot=${root}/plain/plots
                RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "--gnuplot below a file exited ${status}, expected 2:\n${out}${err}")
endif()
string(FIND "${err}" "--gnuplot" at)
if(at EQUAL -1)
  message(FATAL_ERROR "the refusal does not name --gnuplot:\n${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "the sweep ran before --gnuplot was refused:\n${out}")
endif()
