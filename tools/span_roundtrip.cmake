# Checks that `artmt_stats --span-events` re-emits a span dump unchanged:
#   cmake -DSTATS=<artmt_stats> -DDUMP=<dump.jsonl> -P span_roundtrip.cmake
execute_process(COMMAND ${STATS} --span-events ${DUMP}
                OUTPUT_VARIABLE events RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "artmt_stats --span-events ${DUMP} exited ${status}")
endif()
file(READ ${DUMP} dump)
if(dump STREQUAL "" OR NOT events STREQUAL dump)
  message(FATAL_ERROR "the canonical re-emit of ${DUMP} differs from it")
endif()
