# The checked-in sampler end to end: tools/profile_sampler runs a 2k-job
# scenario under ITIMER_PROF for half a CPU second, tools/rank_profile.py
# resolves the PCs with nm, and at least one mcsim:: function must be
# ranked (a broken PC accessor, module offset or symbol lookup ranks only
# "[...]" rows or nothing).
set(pcs "${WORK_DIR}/profile_sampler_test.pcs")
execute_process(
  COMMAND "${SAMPLER}" "${SCENARIO}" --sim-jobs=2000 --seconds=0.5 "--out=${pcs}"
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "profile_sampler exited ${code}:\n${out}${err}")
endif()
execute_process(
  COMMAND "${PYTHON}" "${RANKER}" "${pcs}" --top=40
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "rank_profile.py exited ${code}:\n${out}${err}")
endif()
message(STATUS "${out}")
string(REGEX MATCH "%[ ]+[0-9]+  mcsim::" ranked "${out}")
if(NOT ranked)
  message(FATAL_ERROR "no mcsim:: function ranked:\n${out}")
endif()
