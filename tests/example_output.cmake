# Run one examples/ program with its defaults: it must exit 0 and print
# the expected line (a substring match, so the line's padding counts).
#
#   cmake -DPROGRAM=<path to the example> "-DEXPECT=<line>" -P example_output.cmake

execute_process(COMMAND ${PROGRAM}
                RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited ${status}, expected 0\n${out}${err}")
endif()
string(FIND "${out}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${PROGRAM} did not print \"${EXPECT}\":\n${out}")
endif()
