# CLI contract: saturation mode rejects every pipeline override it cannot
# honour, with exit status 1 and an error naming the field, whether the
# override comes from a flag or from a scenario file.
#
#   cmake -DMCSIM=<path to mcsim> -DSCENARIO_DIR=<data/scenarios>
#         -DWORK_DIR=<scratch dir> -P cli_saturation_overrides.cmake

function(expect_rejection field)
  list(JOIN ARGN " " command)
  execute_process(COMMAND ${MCSIM} ${ARGN}
                  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT status EQUAL 1)
    message(FATAL_ERROR "`mcsim ${command}` exited ${status}, expected 1\n${out}${err}")
  endif()
  string(FIND "${err}" "${field} is not supported in saturation mode" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "`mcsim ${command}` did not name ${field}:\n${err}")
  endif()
endfunction()

set(sat saturation --policy=GS --completions=100)
expect_rejection(policy.backfill ${sat} --backfill=conservative)
expect_rejection(policy.discipline ${sat} --discipline=sjf)
expect_rejection(policy.pipeline.queue ${sat} --queue=single)
expect_rejection(policy.pipeline.coallocation ${sat} --coallocation=co)

# The sealed Table 3 GS scenario with a backfill stage added used to run
# (and report the no-backfill maximal utilization).
file(READ "${SCENARIO_DIR}/table3_gs_limit16_saturation.json" scenario)
string(REPLACE "\"kind\": \"GS\"" "\"kind\": \"GS\", \"backfill\": \"conservative\""
       scenario "${scenario}")
file(WRITE "${WORK_DIR}/table3_gs_conservative_saturation.json" "${scenario}")
expect_rejection(policy.backfill run "${WORK_DIR}/table3_gs_conservative_saturation.json")
