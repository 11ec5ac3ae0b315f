# A generated scenario suite is code (tools/make_scenario_matrix writes
# data/scenarios/matrix, tools/make_corpus_scenarios data/scenarios/corpus):
# regenerating it must reproduce the checked-in directory file for file and
# byte for byte, which is what keeps its sealed goldens honest.
#
#   cmake -DGENERATOR=<path to the generator>
#         -DSCENARIO_DIR=<the checked-in directory> -DWORK_DIR=<scratch dir>
#         -P scenarios_regenerate.cmake
#
# The generator runs in the current directory: make_corpus_scenarios reads
# its logs from data/archive_samples/ there.

get_filename_component(generator_name "${GENERATOR}" NAME)
file(REMOVE_RECURSE "${WORK_DIR}")
execute_process(COMMAND ${GENERATOR} --out=${WORK_DIR}
                RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${generator_name} exited ${status}\n${out}${err}")
endif()

file(GLOB generated RELATIVE "${WORK_DIR}" "${WORK_DIR}/*.json")
file(GLOB checked_in RELATIVE "${SCENARIO_DIR}" "${SCENARIO_DIR}/*.json")
list(SORT generated)
list(SORT checked_in)
if(NOT generated STREQUAL checked_in)
  message(FATAL_ERROR "${generator_name} writes\n  ${generated}\nbut "
                      "${SCENARIO_DIR} holds\n  ${checked_in}")
endif()
foreach(name IN LISTS generated)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          "${WORK_DIR}/${name}" "${SCENARIO_DIR}/${name}"
                  RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${name}: the checked-in file differs from what "
                        "${generator_name} writes; regenerate and reseal it")
  endif()
endforeach()
