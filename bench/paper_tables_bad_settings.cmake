# Each malformed MWSJ_BENCH_SCALE / MWSJ_CPU_SCALE value, and an unknown
# spec name, must make paper_tables exit 2 before it runs anything.
#
# Inputs: -DTABLES=<paper_tables>
foreach(setting
    "MWSJ_BENCH_SCALE=abc" "MWSJ_BENCH_SCALE=2" "MWSJ_BENCH_SCALE=-1"
    "MWSJ_BENCH_SCALE=0" "MWSJ_BENCH_SCALE=0.002x" "MWSJ_BENCH_SCALE=nan"
    "MWSJ_CPU_SCALE=abc" "MWSJ_CPU_SCALE=-1" "MWSJ_CPU_SCALE=inf")
  execute_process(COMMAND ${CMAKE_COMMAND} -E env ${setting} ${TABLES} table2
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2 OR NOT out STREQUAL "")
    message(FATAL_ERROR "${setting}: expected exit 2 and no run, got ${rc}:"
      "\n${out}\n${err}")
  endif()
endforeach()
execute_process(COMMAND ${TABLES} table10
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "unknown table \"table10\"")
  message(FATAL_ERROR "unknown spec: expected exit 2, got ${rc}:\n${err}")
endif()
