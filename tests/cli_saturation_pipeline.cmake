# CLI contract: saturation mode honours every pipeline override, whether it
# comes from a flag or from a scenario file. Each flag runs (exit 0), and
# adding conservative backfilling to the sealed Table 3 GS scenario moves
# its maximal gross utilization.
#
#   cmake -DMCSIM=<path to mcsim> -DSCENARIO_DIR=<data/scenarios>
#         -DWORK_DIR=<scratch dir> -P cli_saturation_pipeline.cmake

function(run_mcsim out_var)
  list(JOIN ARGN " " command)
  execute_process(COMMAND ${MCSIM} ${ARGN}
                  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "`mcsim ${command}` exited ${status}, expected 0\n${out}${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

function(maximal_gross out_var text)
  string(REGEX MATCH "maximal gross utilization +([0-9.]+)" matched "${text}")
  if(NOT matched)
    message(FATAL_ERROR "no maximal gross utilization in:\n${text}")
  endif()
  set(${out_var} "${CMAKE_MATCH_1}" PARENT_SCOPE)
endfunction()

# The sealed Table 3 GS scenario, shortened, with each override as a flag.
set(plain "${SCENARIO_DIR}/table3_gs_limit16_saturation.json")
foreach(flag --backfill=conservative --discipline=sjf --queue=single --coallocation=co)
  run_mcsim(out run "${plain}" --completions=100 ${flag})
endforeach()

# The same scenario, as is and with a conservative backfill stage added to
# its pipeline.
file(READ "${plain}" scenario)
string(REPLACE "\"kind\": \"GS\"" "\"kind\": \"GS\", \"backfill\": \"conservative\""
       scenario "${scenario}")
set(backfilled "${WORK_DIR}/table3_gs_conservative_saturation.json")
file(WRITE "${backfilled}" "${scenario}")

run_mcsim(plain_out run "${plain}")
run_mcsim(backfilled_out run "${backfilled}")
maximal_gross(plain_gross "${plain_out}")
maximal_gross(backfilled_gross "${backfilled_out}")
if(NOT plain_gross STREQUAL "0.661")
  message(FATAL_ERROR "no-backfill Table 3 GS maximal gross utilization is "
                      "${plain_gross}, expected the sealed 0.661")
endif()
if(backfilled_gross STREQUAL plain_gross)
  message(FATAL_ERROR "conservative backfilling left the maximal gross utilization "
                      "at ${plain_gross}: the backfill stage was not run")
endif()
