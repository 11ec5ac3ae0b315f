# The negative cases of experiments_render.cmake, each on a copy: the check
# must fail on a one-cell edit of EXPERIMENTS.md, on a deleted or renamed
# golden the renderer reads, and on a golden missing a field it renders.
#
#   cmake -DRENDERER=<path to render_experiments> -DSOURCE_DIR=<repo root>
#         -DCHECK=<experiments_render.cmake> -DWORK_DIR=<scratch dir>
#         -P experiments_render_negative.cmake

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Run the check on DOCUMENT and GOLDEN_DIR; it must fail naming `expected`.
function(expect_failure case document golden_dir expected)
  execute_process(COMMAND ${CMAKE_COMMAND} -DRENDERER=${RENDERER}
                          -DDOCUMENT=${document} -DGOLDEN_DIR=${golden_dir}
                          -DWORK_DIR=${WORK_DIR}/${case}.render -P ${CHECK}
                  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(status EQUAL 0)
    message(FATAL_ERROR "${case}: the render check passed")
  endif()
  # CMake word-wraps the nested FATAL_ERROR message at a width that depends
  # on the paths it quotes, so a phrase may span lines: compare with every
  # whitespace run collapsed to one space.
  string(REGEX REPLACE "[ \t\r\n]+" " " said "${out}${err}")
  string(FIND "${said}" "${expected}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${case}: the check failed without naming "
                        "'${expected}':\n${out}${err}")
  endif()
endfunction()

# A copy of data/golden with `name` renamed to `new_name` (removed if empty).
function(golden_copy case name new_name)
  file(COPY "${SOURCE_DIR}/data/golden/" DESTINATION "${WORK_DIR}/${case}")
  if(new_name STREQUAL "")
    file(REMOVE "${WORK_DIR}/${case}/${name}")
  else()
    file(RENAME "${WORK_DIR}/${case}/${name}" "${WORK_DIR}/${case}/${new_name}")
  endif()
endfunction()

set(document "${SOURCE_DIR}/EXPERIMENTS.md")
set(goldens "${SOURCE_DIR}/data/golden")

# 1. One cell of Table 3 edited by hand.
file(READ "${document}" text)
string(REGEX REPLACE "(\\| GS \\| 16 \\| )0\\.[0-9]+" "\\10.999" edited "${text}")
if(edited STREQUAL text)
  message(FATAL_ERROR "edited_cell: no Table 3 'GS | 16' row to edit")
endif()
file(WRITE "${WORK_DIR}/edited.md" "${edited}")
expect_failure(edited_cell "${WORK_DIR}/edited.md" "${goldens}" "differs from what")

# 2. A golden it reads deleted, and another renamed.
golden_copy(deleted table3_ls_limit16_saturation.golden.json "")
expect_failure(deleted_golden "${document}" "${WORK_DIR}/deleted"
               "table3_ls_limit16_saturation.golden.json")
golden_copy(renamed fig3_sc.golden.json fig3_single_cluster.golden.json)
expect_failure(renamed_golden "${document}" "${WORK_DIR}/renamed" "fig3_sc.golden.json")

# 3. A sweep golden without the p95 the queue-discipline table renders.
golden_copy(missing_field ablation_discipline_sc_largest.golden.json "")
file(READ "${goldens}/ablation_discipline_sc_largest.golden.json" golden)
string(REPLACE "\"p95\"" "\"p96\"" golden "${golden}")
file(WRITE "${WORK_DIR}/missing_field/ablation_discipline_sc_largest.golden.json" "${golden}")
expect_failure(missing_field "${document}" "${WORK_DIR}/missing_field" "p95")
