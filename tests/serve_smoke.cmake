# The kgq-serve smoke golden as a ctest script (registered as
# `serve_smoke` in tests/CMakeLists.txt):
#
#   cmake -DKGQ_SERVE=<kgq-serve> -DPYTHON=<python3> -DSOURCE_DIR=<repo>
#         -DOUT_DIR=<dir> -P tests/serve_smoke.cmake
#
# Pipes tests/data/serve_smoke.jsonl through kgq-serve at --workers 1
# and 4, normalizes the output with tools/normalize_serve_output.py and
# requires it to equal tests/data/serve_smoke_golden.jsonl byte for
# byte. Each normalized output is kept in OUT_DIR for inspection.

set(script ${SOURCE_DIR}/tests/data/serve_smoke.jsonl)
set(golden ${SOURCE_DIR}/tests/data/serve_smoke_golden.jsonl)
file(READ ${golden} want)

foreach(workers 1 4)
  set(got_file ${OUT_DIR}/serve_smoke_workers${workers}.jsonl)
  execute_process(
    COMMAND ${KGQ_SERVE} --workers ${workers}
    COMMAND ${PYTHON} ${SOURCE_DIR}/tools/normalize_serve_output.py
    INPUT_FILE ${script}
    OUTPUT_FILE ${got_file}
    RESULTS_VARIABLE codes)
  foreach(code ${codes})
    if(NOT code EQUAL 0)
      message(FATAL_ERROR "serve smoke at --workers ${workers}: "
                          "pipeline exit codes ${codes}")
    endif()
  endforeach()
  file(READ ${got_file} got)
  if(NOT got STREQUAL want)
    execute_process(COMMAND diff -u ${golden} ${got_file})
    message(FATAL_ERROR "serve smoke at --workers ${workers} differs from "
                        "${golden} (output: ${got_file})")
  endif()
endforeach()
