# End-to-end smoke test of the CLI tools, run by ctest:
#   mwsj_datagen (csv + binary) -> mwsj_join --verify --output -> tuple CSV,
#   plus a Chrome-trace export validated for structure and span coverage,
#   All-Replicate runs (in memory, and spilling under a 4k shuffle budget
#   with injected faults) whose tuple CSVs must match C-Rep-L's (the
#   in-memory one must also report its reducers' reach prune), the exact
#   catalog totals of three concurrent identical submissions, a 2-way
#   Ra(0.1) pair beside a large diagonal that every algorithm (C-Rep-L's
#   f2 bound included) must find, a knn-mr run (plain, and three
#   concurrent submissions), the skip lines of --estimate and --verify
#   where they do not apply, a predicate-join --estimate that must print
#   the same finite positive number at two grid sizes, malformed numeric
#   flags of both tools that must be rejected with exit code 2, and a grid
#   too large to number its cells, which must be refused.
# Invoked with -DDATAGEN=<path> -DJOIN=<path> -DWORKDIR=<dir>.

file(MAKE_DIRECTORY ${WORKDIR})

function(run_checked)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE code OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "command failed (${code}): ${ARGN}\n${out}\n${err}")
  endif()
endfunction()

run_checked(${DATAGEN} --kind synthetic --n 3000 --seed 1 --space 4000
            --lmax 60 --bmax 60 --out ${WORKDIR}/a.csv)
run_checked(${DATAGEN} --kind synthetic --n 3000 --seed 2 --space 4000
            --lmax 60 --bmax 60 --out ${WORKDIR}/b.bin)
run_checked(${DATAGEN} --kind california --n 2000 --out ${WORKDIR}/roads.csv)
# kNN inputs: 300 query points (degenerate rectangles) and 500 rectangles.
run_checked(${DATAGEN} --kind synthetic --n 300 --seed 3 --space 1000
            --lmax 0 --bmax 0 --out ${WORKDIR}/points.csv)
run_checked(${DATAGEN} --kind synthetic --n 500 --seed 4 --space 1000
            --lmax 30 --bmax 30 --out ${WORKDIR}/sites.csv)

run_checked(${JOIN} --query "A OV B AND B RA(40) A2" --input A=${WORKDIR}/a.csv
            --input B=${WORKDIR}/b.bin --input A2=${WORKDIR}/a.csv
            --algorithm crepl --grid 4x4 --verify --explain
            --output ${WORKDIR}/tuples.csv
            --stats-json ${WORKDIR}/stats.json
            --trace=${WORKDIR}/trace.json)

# Integer flags are parsed whole and in int range: a value that would wrap
# to a small count, or a grid with trailing junk, is a usage error (exit 2)
# rather than a run with some other setting.
foreach(bad_flag "--threads;4294967297" "--jobs;4294967297" "--k;4294967298"
        "--grid;8x8junk")
  execute_process(COMMAND ${JOIN} --query "A OV B" --input A=${WORKDIR}/a.csv
                  --input B=${WORKDIR}/a.csv --count-only ${bad_flag}
                  RESULT_VARIABLE code OUTPUT_QUIET ERROR_QUIET)
  if(NOT code EQUAL 2)
    string(REPLACE ";" " " shown "${bad_flag}")
    message(FATAL_ERROR "mwsj_join ${shown} exited ${code}, expected 2")
  endif()
endforeach()

# A grid whose cell count does not fit a CellId (INT32_MAX) is refused
# before any cell is numbered, not run with an overflowed reducer count.
execute_process(COMMAND ${JOIN} --query "A OV B" --input A=${WORKDIR}/a.csv
                --input B=${WORKDIR}/a.csv --count-only --grid 65536x65536
                RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
string(FIND "${err}" "65536x65536 cells exceeds" huge_grid_pos)
if(code EQUAL 0 OR huge_grid_pos EQUAL -1)
  message(FATAL_ERROR
          "mwsj_join --grid 65536x65536 exited ${code}, expected a refusal: "
          "${err}")
endif()

# The generator's numeric flags are parsed whole too: junk, trailing
# characters and a negative count are usage errors, not seed 0 or n = 5.
foreach(bad_flag "--seed;abc" "--n;5x" "--space;2000junk" "--n;-3")
  execute_process(COMMAND ${DATAGEN} --kind synthetic --n 10
                  --out ${WORKDIR}/bad_flag.csv ${bad_flag}
                  RESULT_VARIABLE code OUTPUT_QUIET ERROR_QUIET)
  if(NOT code EQUAL 2)
    string(REPLACE ";" " " shown "${bad_flag}")
    message(FATAL_ERROR "mwsj_datagen ${shown} exited ${code}, expected 2")
  endif()
endforeach()

# The output CSV must exist, have the right header, and more than one line.
file(READ ${WORKDIR}/tuples.csv tuples)
string(FIND "${tuples}" "A,B,A2" header_pos)
if(NOT header_pos EQUAL 0)
  message(FATAL_ERROR "tuples.csv missing relation header: ${tuples}")
endif()

# The stats JSON must mention both C-Rep rounds.
file(READ ${WORKDIR}/stats.json stats)
string(FIND "${stats}" "crep_round1_mark" r1)
string(FIND "${stats}" "crepl_round2_join" r2)
if(r1 EQUAL -1 OR r2 EQUAL -1)
  message(FATAL_ERROR "stats.json missing job entries: ${stats}")
endif()

# All-Replicate is C-Rep's join round with every rectangle marked: on the
# same inputs and query it must write the identical tuple file, from its
# own single job.
run_checked(${JOIN} --query "A OV B AND B RA(40) A2" --input A=${WORKDIR}/a.csv
            --input B=${WORKDIR}/b.bin --input A2=${WORKDIR}/a.csv
            --algorithm allrep --grid 4x4
            --output ${WORKDIR}/allrep_tuples.csv
            --stats-json ${WORKDIR}/allrep_stats.json)
file(READ ${WORKDIR}/allrep_tuples.csv allrep_tuples)
if(NOT allrep_tuples STREQUAL tuples)
  message(FATAL_ERROR "allrep_tuples.csv differs from the crepl tuples.csv")
endif()
file(READ ${WORKDIR}/allrep_stats.json allrep_stats)
string(FIND "${allrep_stats}" "\"all_replicate\"" allrep_job)
if(allrep_job EQUAL -1)
  message(FATAL_ERROR "allrep_stats.json missing the all_replicate job: "
                      "${allrep_stats}")
endif()
# Its reducers drop the replicated copies that cannot reach their cell's
# owner window before building R-trees: the prune must show, and every
# tuple the reducers checked must still be one they own.
string(REGEX MATCH "\"local_join_rects_pruned\": ([0-9]+)" _
       "${allrep_stats}")
if(NOT CMAKE_MATCH_1 OR CMAKE_MATCH_1 EQUAL 0)
  message(FATAL_ERROR "allrep_stats.json reports no local_join_rects_pruned: "
                      "${allrep_stats}")
endif()
string(REGEX MATCH "\"dedup_tuple_checks\": ([0-9]+)" _ "${allrep_stats}")
set(allrep_checks "${CMAKE_MATCH_1}")
string(REGEX MATCH "\"dedup_owned\": ([0-9]+)" _ "${allrep_stats}")
if(allrep_checks STREQUAL "" OR NOT allrep_checks EQUAL CMAKE_MATCH_1)
  message(FATAL_ERROR "allrep_stats.json: dedup_tuple_checks "
                      "(${allrep_checks}) != dedup_owned (${CMAKE_MATCH_1})")
endif()

# The same run under a 4k shuffle budget spills every map chunk into its
# run store and merges the runs back; the fault plan crashes, breaks and
# slows map, spill-flush and reduce attempts. None of it may change a byte
# of the tuple file, and the flush retries must really have happened.
run_checked(${CMAKE_COMMAND} -E env MWSJ_SHUFFLE_BUDGET=4k
            ${JOIN} --query "A OV B AND B RA(40) A2" --input A=${WORKDIR}/a.csv
            --input B=${WORKDIR}/b.bin --input A2=${WORKDIR}/a.csv
            --algorithm allrep --grid 4x4
            --faults seed=5,crash=0.1,flaky=0.08,slow=0.05
            --output ${WORKDIR}/allrep_spill_tuples.csv
            --stats-json ${WORKDIR}/allrep_spill_stats.json)
file(READ ${WORKDIR}/allrep_spill_tuples.csv allrep_spill_tuples)
if(NOT allrep_spill_tuples STREQUAL tuples)
  message(FATAL_ERROR
          "allrep_spill_tuples.csv (4k budget, faults) differs from the "
          "crepl tuples.csv")
endif()
file(READ ${WORKDIR}/allrep_spill_stats.json allrep_spill_stats)
foreach(field spilled_runs flush_retries)
  string(REGEX MATCH "\"${field}\": ([0-9]+)" _ "${allrep_spill_stats}")
  if(NOT CMAKE_MATCH_1 OR CMAKE_MATCH_1 EQUAL 0)
    message(FATAL_ERROR "allrep_spill_stats.json reports no ${field}: "
                        "${allrep_spill_stats}")
  endif()
endforeach()

# The distributed kNN join through the CLI: k = 3 rows per point, in the
# {point, rank, rect} encoding. It is no predicate join, so --estimate and
# --verify must each say they skipped rather than print a number or
# nothing.
execute_process(COMMAND ${JOIN} --query "P OV R" --input P=${WORKDIR}/points.csv
                --input R=${WORKDIR}/sites.csv --algorithm knn-mr --k 3
                --grid 4x4 --estimate --verify --output ${WORKDIR}/knn.csv
                OUTPUT_VARIABLE knn_out RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "mwsj_join --algorithm knn-mr exited ${code}: "
                      "${knn_out}")
endif()
foreach(needle "estimated output cardinality: skipped (not a predicate join)"
        "verification: skipped (not a predicate join)" "output tuples: 900\n")
  string(FIND "${knn_out}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "mwsj_join --algorithm knn-mr: expected "
                        "'${needle}'\n${knn_out}")
  endif()
endforeach()
file(STRINGS ${WORKDIR}/knn.csv knn_lines)
list(LENGTH knn_lines knn_line_count)
list(GET knn_lines 0 knn_header)
if(NOT knn_header STREQUAL "point,rank,rect" OR NOT knn_line_count EQUAL 901)
  message(FATAL_ERROR "knn.csv: header '${knn_header}', ${knn_line_count} "
                      "lines; expected 'point,rank,rect' and 900 rows")
endif()

# On a predicate join --estimate prints a finite positive cardinality from
# sampled selectivities. The estimate reads the inputs, not the grid, so
# --grid 2x2 and --grid 8x8 must print the same number.
set(estimate_2x2 "")
foreach(grid 2x2 8x8)
  execute_process(COMMAND ${JOIN} --query "A OV B AND B RA(40) A2"
                  --input A=${WORKDIR}/a.csv --input B=${WORKDIR}/b.bin
                  --input A2=${WORKDIR}/a.csv --algorithm crepl --grid ${grid}
                  --count-only --estimate
                  OUTPUT_VARIABLE estimate_out RESULT_VARIABLE code)
  string(REGEX MATCH "estimated output cardinality: ([0-9][0-9.e+-]*)\n" _
         "${estimate_out}")
  set(estimate "${CMAKE_MATCH_1}")
  if(NOT code EQUAL 0 OR estimate STREQUAL "" OR NOT estimate GREATER 0)
    message(FATAL_ERROR "mwsj_join --estimate --grid ${grid} exited ${code} "
                        "without a finite positive estimate:\n${estimate_out}")
  endif()
  if(grid STREQUAL "2x2")
    set(estimate_2x2 "${estimate}")
  elseif(NOT estimate STREQUAL estimate_2x2)
    message(FATAL_ERROR "mwsj_join --estimate: ${estimate} at --grid 8x8 "
                        "but ${estimate_2x2} at --grid 2x2")
  endif()
endforeach()

# Three identical submissions in flight at once build each catalog artifact
# once: the other two jobs wait for the builder and hit. M distinct keys
# (bundle, grid and, for C-Rep, the round-1 marking; for knn-mr, the cell
# bounds) give exactly M misses and 2 x M hits, however the jobs
# interleave. The per-job split varies with timing; only totals are fixed.
set(join_args --query "A OV B AND B RA(40) A2" --input A=${WORKDIR}/a.csv
    --input B=${WORKDIR}/b.bin --input A2=${WORKDIR}/a.csv --count-only)
set(knn_args --query "P OV R" --input P=${WORKDIR}/points.csv
    --input R=${WORKDIR}/sites.csv --k 3)
foreach(case "crep;6 hits, 3 misses;join_args"
        "allrep;4 hits, 2 misses;join_args"
        "knn-mr;6 hits, 3 misses;knn_args")
  list(GET case 0 algorithm)
  list(GET case 1 totals)
  list(GET case 2 args)
  execute_process(COMMAND ${JOIN} ${${args}} --algorithm ${algorithm}
                  --grid 4x4 --threads 2 --jobs 3
                  OUTPUT_VARIABLE jobs_out RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "mwsj_join --jobs 3 --algorithm ${algorithm} "
                        "exited ${code}: ${jobs_out}")
  endif()
  string(FIND "${jobs_out}" "catalog totals: ${totals}\n" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "mwsj_join --jobs 3 --algorithm ${algorithm}: "
                        "expected catalog totals: ${totals}\n${jobs_out}")
  endif()
endforeach()

# The trace must be present and cover the run: Chrome-trace envelope, both
# C-Rep rounds, and every engine phase.
file(READ ${WORKDIR}/trace.json trace)
foreach(needle "\"traceEvents\"" "\"crep_round1\"" "\"crep_round2\""
        "\"map\"" "\"shuffle\"" "\"reduce\"" "\"grid_build\"")
  string(FIND "${trace}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "trace.json missing ${needle}")
  endif()
endforeach()

# If a python3 is around, hold the trace to full JSON strictness.
find_program(PYTHON3 python3)
if(PYTHON3)
  execute_process(COMMAND ${PYTHON3} -m json.tool ${WORKDIR}/trace.json
                  RESULT_VARIABLE json_code OUTPUT_QUIET
                  ERROR_VARIABLE json_err)
  if(NOT json_code EQUAL 0)
    message(FATAL_ERROR "trace.json is not valid JSON: ${json_err}")
  endif()
  execute_process(COMMAND ${PYTHON3} -m json.tool ${WORKDIR}/stats.json
                  RESULT_VARIABLE json_code OUTPUT_QUIET
                  ERROR_VARIABLE json_err)
  if(NOT json_code EQUAL 0)
    message(FATAL_ERROR "stats.json is not valid JSON: ${json_err}")
  endif()
endif()

# Cross-check: brute force must report the same tuple count.
# A count-only run keeps no tuples to verify: --verify must say it skipped.
execute_process(COMMAND ${JOIN} --query "A OV B AND B RA(40) A2"
                --input A=${WORKDIR}/a.csv --input B=${WORKDIR}/b.bin
                --input A2=${WORKDIR}/a.csv --algorithm brute --count-only
                --verify
                OUTPUT_VARIABLE brute_out RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "brute-force run failed")
endif()
string(FIND "${brute_out}"
       "verification: skipped (--count-only keeps no tuples)" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "--verify --count-only printed no skip line: "
                      "${brute_out}")
endif()
string(REGEX MATCH "output tuples: ([0-9]+)" _ ${brute_out})
set(brute_count ${CMAKE_MATCH_1})
string(REGEX MATCHALL "[^\n]+" tuple_lines "${tuples}")
list(LENGTH tuple_lines total_lines)
math(EXPR tuple_count "${total_lines} - 1")  # Minus the header.
if(NOT tuple_count EQUAL brute_count)
  message(FATAL_ERROR
          "C-Rep-L wrote ${tuple_count} tuples but brute force counted "
          "${brute_count}")
endif()

# A 2-way Ra(0.1) pair across the grid line x = 10 beside a partner of
# diagonal 1030.05: C-Rep-L's f2 bound for A is exactly 0.1 and the owner
# cell lies at Chebyshev distance 0.0999999999999979, so every algorithm
# reports the one tuple.
file(WRITE ${WORKDIR}/near_a.csv
     "x,y,l,b\n9.85,1501,0.05000000000000249,1\n0,1,1,1\n")
file(WRITE ${WORKDIR}/near_b.csv
     "x,y,l,b\n10.000000000000002,1501,900,501\n1999,2000,1,1\n")
foreach(algorithm crep crepl allrep cascade brute)
  execute_process(COMMAND ${JOIN} --query "A RA(0.1) B"
                  --input A=${WORKDIR}/near_a.csv
                  --input B=${WORKDIR}/near_b.csv --grid 2x200
                  --algorithm ${algorithm}
                  OUTPUT_VARIABLE near_out RESULT_VARIABLE code)
  string(FIND "${near_out}" "output tuples: 1\n" pos)
  if(NOT code EQUAL 0 OR pos EQUAL -1)
    message(FATAL_ERROR "mwsj_join --algorithm ${algorithm} on the Ra(0.1) "
                        "pair (exit ${code}): expected 1 tuple\n${near_out}")
  endif()
endforeach()

message(STATUS "pipeline smoke OK: ${tuple_count} tuples, verified")
