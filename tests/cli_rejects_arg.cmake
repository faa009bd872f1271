# Runs `${TOOL} ${ARGS}` and checks that the tool rejects a malformed
# numeric argument: non-zero exit and ${MESSAGE} on stderr, instead of
# reading the value's leading digits (or 0) and carrying on. Invoked by
# ctest with -DTOOL=<binary> "-DARGS=<space-separated arguments>"
# "-DMESSAGE=<regex>".
separate_arguments(ArgList UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND ${TOOL} ${ArgList}
  RESULT_VARIABLE Status
  OUTPUT_VARIABLE Out
  ERROR_VARIABLE Err)
if(Status EQUAL 0)
  message(FATAL_ERROR "accepted '${ARGS}' and exited 0:\n${Out}${Err}")
endif()
if(NOT Err MATCHES "${MESSAGE}")
  message(FATAL_ERROR "expected '${MESSAGE}' on stderr, got:\n${Err}")
endif()
