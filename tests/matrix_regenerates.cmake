# The scenario matrix is code (tools/make_scenario_matrix): regenerating it
# must reproduce the checked-in data/scenarios/matrix file for file and
# byte for byte, which is what keeps its sealed goldens honest.
#
#   cmake -DGENERATOR=<path to make_scenario_matrix>
#         -DMATRIX_DIR=<data/scenarios/matrix> -DWORK_DIR=<scratch dir>
#         -P matrix_regenerates.cmake

file(REMOVE_RECURSE "${WORK_DIR}")
execute_process(COMMAND ${GENERATOR} --out=${WORK_DIR}
                RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "make_scenario_matrix exited ${status}\n${out}${err}")
endif()

file(GLOB generated RELATIVE "${WORK_DIR}" "${WORK_DIR}/*.json")
file(GLOB checked_in RELATIVE "${MATRIX_DIR}" "${MATRIX_DIR}/*.json")
list(SORT generated)
list(SORT checked_in)
if(NOT generated STREQUAL checked_in)
  message(FATAL_ERROR "the generator writes\n  ${generated}\nbut the checked-in "
                      "matrix holds\n  ${checked_in}")
endif()
foreach(name IN LISTS generated)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          "${WORK_DIR}/${name}" "${MATRIX_DIR}/${name}"
                  RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${name}: the checked-in file differs from what "
                        "make_scenario_matrix writes; regenerate and reseal it")
  endif()
endforeach()
