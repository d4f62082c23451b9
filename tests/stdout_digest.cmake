# stdout_digest.cmake -- runs one harness and compares the SHA-256 of its
# stdout with a recorded digest.
#
#   cmake -DHARNESS=<executable> [-DARGS=<argument>] -DEXPECTED=<sha256>
#         -P stdout_digest.cmake
#
# tests/CMakeLists.txt registers one ctest case per pinned harness run.

get_filename_component(name ${HARNESS} NAME)
string(JOIN " " label ${name} ${ARGS})
string(JOIN " " command ${HARNESS} ${ARGS})

execute_process(
  COMMAND ${HARNESS} ${ARGS}
  OUTPUT_VARIABLE stdout
  ERROR_VARIABLE stderr
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${label} exited with ${status}:\n${stderr}")
endif()

string(SHA256 actual "${stdout}")
if(NOT actual STREQUAL EXPECTED)
  message(FATAL_ERROR
    "${label}: stdout changed (sha256 ${actual}, recorded ${EXPECTED}).  "
    "If the change is intended, regenerate the digest with\n"
    "  ${command} | sha256sum\n"
    "and record it in tests/CMakeLists.txt.")
endif()
