# Byte-golden check for a CLI command: runs CMD and requires its stdout to
# equal the committed GOLDEN file exactly (stderr is ignored; it carries
# timing and progress lines).  Exit code must be 0.
#
# Variables:
#   CMD     semicolon-separated command line to run
#   GOLDEN  file holding the expected stdout
execute_process(
  COMMAND ${CMD}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "exit code ${rc}\ncommand: ${CMD}\n${out}${err}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT out STREQUAL expected)
  message(FATAL_ERROR
    "stdout differs from ${GOLDEN}\ncommand: ${CMD}\n"
    "--- expected ---\n${expected}\n--- actual ---\n${out}")
endif()
