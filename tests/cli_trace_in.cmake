# CLI contract: the closed SWF loop (docs/TRACING.md, "Replaying traces").
# A point run exports its realised schedule with --trace-out; `run
# --trace-in` replays that log under the same policy and must reproduce the
# wait/response statistics of the original manifest bit-exactly, on GS and
# LS. Replayed under the other policy the same log must not. A truncated
# log and a log with a corrupted field exit 1 naming file:line.
#
#   cmake -DMCSIM=<path to mcsim> -DTRACE_DIR=<data/archive_samples>
#         -DWORK_DIR=<scratch dir> -P cli_trace_in.cmake

function(expect_exit code)
  list(JOIN ARGN " " command)
  execute_process(COMMAND ${MCSIM} ${ARGN}
                  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT status EQUAL code)
    message(FATAL_ERROR "`mcsim ${command}` exited ${status}, expected ${code}\n${out}${err}")
  endif()
  set(run_error "${err}" PARENT_SCOPE)
endfunction()

function(expect_error_names)
  foreach(detail IN LISTS ARGN)
    string(FIND "${run_error}" "${detail}" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "the error does not name \"${detail}\":\n${run_error}")
    endif()
  endforeach()
endfunction()

# The result groups a replay reproduces: everything derived from per-job
# waits and responses. Slowdown and net utilization are left out: the log
# stores gross runtimes only, so the replay reconstructs net service as
# run/extension, which need not be the bit-exact inverse of the original.
set(replayed_groups completed_jobs measured_jobs mean_response response wait)

# Sets `<prefix>_<group>` to the JSON text of result.<group> in a manifest.
# Doubles print at round-trip precision, so equal text is equal bits.
function(read_result_groups manifest prefix)
  file(READ "${manifest}" json)
  foreach(group IN LISTS replayed_groups)
    string(JSON value GET "${json}" result ${group})
    set(${prefix}_${group} "${value}" PARENT_SCOPE)
  endforeach()
endfunction()

# Splits `path` around its line number `line` (> 1): sets `head` (the
# lines before it, with their newlines), `target` (the line, without its
# newline) and `tail` (everything after it).
function(split_at_line path line)
  file(READ "${path}" text)
  set(offset 0)
  math(EXPR before "${line} - 1")
  foreach(i RANGE 1 ${before})
    string(SUBSTRING "${text}" ${offset} -1 rest)
    string(FIND "${rest}" "\n" at)
    math(EXPR offset "${offset} + ${at} + 1")
  endforeach()
  string(SUBSTRING "${text}" 0 ${offset} head_text)
  string(SUBSTRING "${text}" ${offset} -1 rest)
  string(FIND "${rest}" "\n" at)
  string(SUBSTRING "${rest}" 0 ${at} target_text)
  math(EXPR after "${at} + 1")
  string(SUBSTRING "${rest}" ${after} -1 tail_text)
  set(head "${head_text}" PARENT_SCOPE)
  set(target "${target_text}" PARENT_SCOPE)
  set(tail "${tail_text}" PARENT_SCOPE)
endfunction()

set(base "${WORK_DIR}/cli_trace_in")

# The closed loop: each policy's exported schedule replays to its own
# statistics.
foreach(policy GS LS)
  expect_exit(0 run --policy=${policy} --utilization=0.5 --sim-jobs=5000
              --trace-out=${base}_${policy}.swf --metrics-out=${base}_${policy}.json)
  expect_exit(0 run --trace-in=${base}_${policy}.swf --policy=${policy}
              --metrics-out=${base}_${policy}_replay.json)
  read_result_groups(${base}_${policy}.json original)
  read_result_groups(${base}_${policy}_replay.json replay)
  foreach(group IN LISTS replayed_groups)
    if(NOT original_${group} STREQUAL replay_${group})
      message(FATAL_ERROR "${policy}: the replay of its own schedule diverges at "
                          "result.${group}:\n  run:    ${original_${group}}\n"
                          "  replay: ${replay_${group}}")
    endif()
  endforeach()
endforeach()

# The negative control: GS's schedule replayed under LS is another run.
expect_exit(0 run --trace-in=${base}_GS.swf --policy=LS
            --metrics-out=${base}_GS_as_LS.json)
read_result_groups(${base}_GS.json original)
read_result_groups(${base}_GS_as_LS.json replay)
set(same TRUE)
foreach(group IN LISTS replayed_groups)
  if(NOT original_${group} STREQUAL replay_${group})
    set(same FALSE)
  endif()
endforeach()
if(same)
  message(FATAL_ERROR "GS's schedule replayed under LS matched GS: the "
                      "comparison cannot see a policy change")
endif()

# A corrupted field: line 100 of the exported log gets a non-number in
# field 4 (the run time).
split_at_line(${base}_GS.swf 100)
string(REGEX REPLACE "^([^ ]+ [^ ]+ [^ ]+ )[^ ]+" "\\1bogus" corrupted "${target}")
file(WRITE ${base}_corrupt.swf "${head}${corrupted}\n${tail}")
expect_exit(1 run --trace-in=${base}_corrupt.swf --policy=GS)
expect_error_names("cli_trace_in_corrupt.swf:100" "field 4")

# A truncated log: the first 100 lines of an archive sample, then a record
# cut off after its submit time.
split_at_line(${TRACE_DIR}/sdsc_sp2_style.swf 101)
file(WRITE ${base}_trunc.swf "${head}9999 123.0\n")
expect_exit(1 run --trace-in=${base}_trunc.swf)
expect_error_names("cli_trace_in_trunc.swf:101" "no processor count")
