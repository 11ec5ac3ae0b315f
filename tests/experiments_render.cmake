# EXPERIMENTS.md's measured tables are a pure function of the sealed
# goldens: render_experiments (tools/) rewrites them from data/golden/, and
# rendering a copy must reproduce the checked-in document byte for byte.
#
#   cmake -DRENDERER=<path to render_experiments>
#         -DDOCUMENT=<the EXPERIMENTS.md to check>
#         -DGOLDEN_DIR=<the data/golden directory it renders from>
#         -DWORK_DIR=<scratch dir> -P experiments_render.cmake
#
# The renderer runs in WORK_DIR, on copies of both.

get_filename_component(renderer_name "${RENDERER}" NAME)
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}/data")
file(COPY "${GOLDEN_DIR}/" DESTINATION "${WORK_DIR}/data/golden")
configure_file("${DOCUMENT}" "${WORK_DIR}/EXPERIMENTS.md" COPYONLY)
execute_process(COMMAND ${RENDERER} WORKING_DIRECTORY "${WORK_DIR}"
                RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${renderer_name} exited ${status}\n${out}${err}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        "${WORK_DIR}/EXPERIMENTS.md" "${DOCUMENT}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${DOCUMENT} differs from what ${renderer_name} writes "
                      "from ${GOLDEN_DIR}; run it from the repository root "
                      "and commit the result")
endif()
