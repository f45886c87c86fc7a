# Runs one deterministic paper-figure bench at RESTUNE_BENCH_ITERS=40 and
# compares its stdout byte for byte with the committed golden file, once at
# the default thread count and once at RESTUNE_NUM_THREADS=1.
#
#   cmake -DBENCH=<bench binary> -DGOLDEN=<golden .txt> -DACTUAL_DIR=<dir> \
#         -P tools/compare_golden.cmake
#
# On a mismatch the actual output is left in ACTUAL_DIR for `diff`. A golden
# file changes only as a reviewed diff, with a CHANGES.md line that says
# which numbers moved and why.
foreach(var BENCH GOLDEN ACTUAL_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "compare_golden: -D${var}=... is required")
  endif()
endforeach()

file(READ "${GOLDEN}" expected)
get_filename_component(name "${GOLDEN}" NAME_WE)
file(MAKE_DIRECTORY "${ACTUAL_DIR}")

foreach(threads default 1)
  if(threads STREQUAL "default")
    set(thread_env --unset=RESTUNE_NUM_THREADS)
  else()
    set(thread_env RESTUNE_NUM_THREADS=${threads})
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env ${thread_env} RESTUNE_BENCH_ITERS=40
            "${BENCH}"
    OUTPUT_VARIABLE actual
    ERROR_QUIET
    RESULT_VARIABLE exit_code)
  if(NOT exit_code EQUAL 0)
    message(FATAL_ERROR "${name} (threads=${threads}) exited with ${exit_code}")
  endif()
  if(NOT actual STREQUAL expected)
    set(actual_file "${ACTUAL_DIR}/${name}.threads-${threads}.txt")
    file(WRITE "${actual_file}" "${actual}")
    message(FATAL_ERROR
      "${name} (threads=${threads}) differs from its golden file; compare "
      "with: diff ${GOLDEN} ${actual_file}")
  endif()
endforeach()
message(STATUS "${name}: identical to ${GOLDEN} at default and 1 thread")
