# Runs ${CLI} with the space-separated ${ARGS} and passes only when it
# exits with code 2 and its standard error names ${FLAG}.
#
#   cmake -DCLI=rankjoin_cli "-DARGS=--theta abc" -DFLAG=--theta \
#         -P cli_rejects.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${CLI} ${args}
  RESULT_VARIABLE code
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT code EQUAL 2)
  message(FATAL_ERROR "'${ARGS}' exited with ${code}, expected 2: ${err}")
endif()
string(FIND "${err}" "${FLAG}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "'${ARGS}' did not name ${FLAG}: ${err}")
endif()
