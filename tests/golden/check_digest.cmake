# Golden-digest check, run as `cmake -P`: executes BIN with ARGS and
# compares the SHA-256 of its output with EXPECTED. The output is BIN's
# stdout, captured to OUTPUT; with WRITES_OUTPUT=ON the command writes
# OUTPUT itself (ARGS must name it) and stdout is left alone.
#
#   cmake -DBIN=<exe> -DEXPECTED=<sha256> -DOUTPUT=<file>
#         [-DARGS="<args>"] [-DWRITES_OUTPUT=ON] -P check_digest.cmake
#
# On a mismatch the output file is kept for diffing.
cmake_minimum_required(VERSION 3.16)

foreach(var BIN EXPECTED OUTPUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_digest.cmake: -D${var}=... is required")
  endif()
endforeach()

separate_arguments(args UNIX_COMMAND "${ARGS}")
file(REMOVE "${OUTPUT}")
if(WRITES_OUTPUT)
  execute_process(COMMAND "${BIN}" ${args} RESULT_VARIABLE rc)
else()
  execute_process(COMMAND "${BIN}" ${args}
    OUTPUT_FILE "${OUTPUT}" RESULT_VARIABLE rc)
endif()
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} ${ARGS} exited with ${rc}")
endif()
if(NOT EXISTS "${OUTPUT}")
  message(FATAL_ERROR "${BIN} ${ARGS} did not write ${OUTPUT}")
endif()

file(SHA256 "${OUTPUT}" actual)
if(NOT actual STREQUAL EXPECTED)
  message(FATAL_ERROR "digest mismatch: ${BIN} ${ARGS}\n"
    "  expected ${EXPECTED}\n  actual   ${actual}\n  output   ${OUTPUT}")
endif()
file(REMOVE "${OUTPUT}")
