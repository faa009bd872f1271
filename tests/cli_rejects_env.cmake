# Runs `HETSIM_TRACE_CACHE=2 hetsim sweep ...` and checks that the tool
# rejects the value once: non-zero exit, the fatal message exactly once,
# and no sweep table on stdout. Invoked by ctest with -DHETSIM=<binary>.
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env HETSIM_TRACE_CACHE=2
          ${HETSIM} sweep --system CPU+GPU --kernel reduction
          --key comm.api_pci_base --values 0,33250
  RESULT_VARIABLE Status
  OUTPUT_VARIABLE Out
  ERROR_VARIABLE Err)
if(Status EQUAL 0)
  message(FATAL_ERROR "hetsim accepted HETSIM_TRACE_CACHE=2")
endif()
string(REGEX MATCHALL "HETSIM_TRACE_CACHE must be unset, '1' or '0'" Hits
       "${Err}")
list(LENGTH Hits Count)
if(NOT Count EQUAL 1)
  message(FATAL_ERROR "expected the message once, got ${Count}:\n${Err}")
endif()
if(Out MATCHES "total_us")
  message(FATAL_ERROR "a sweep table was printed:\n${Out}")
endif()
