# Runs every paper_tables spec at MWSJ_BENCH_SCALE=0.002 and fails if the
# driver reports a failed scale-free claim (exit 1). When PYTHON is set,
# tools/bench_diff.py then compares the run's rows with themselves and
# must flag no count.
#
# Inputs: -DTABLES=<paper_tables> -DWORKDIR=<dir>
#         [-DPYTHON=<python3> -DBENCH_DIFF=<tools/bench_diff.py>]
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
set(rows "${WORKDIR}/rows.jsonl")
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env --unset=MWSJ_CPU_SCALE
    MWSJ_BENCH_SCALE=0.002 MWSJ_BENCH_JSON=${rows} ${TABLES}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "paper_tables exited ${rc}:\n${out}\n${err}")
endif()
string(REGEX MATCHALL "PASS  scale-free" passed "${out}")
list(LENGTH passed num_passed)
message(STATUS "${num_passed} scale-free claims passed")
if(num_passed EQUAL 0)
  message(FATAL_ERROR "no scale-free claim was checked:\n${out}")
endif()
if(PYTHON)
  execute_process(COMMAND ${PYTHON} ${BENCH_DIFF} ${rows} ${rows}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_diff flagged the rows against themselves "
      "(exit ${rc}):\n${out}\n${err}")
  endif()
endif()
