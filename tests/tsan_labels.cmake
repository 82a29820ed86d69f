# Runs at ctest load time (via the TEST_INCLUDE_FILES directory property),
# after gtest test discovery: re-labels every test of the thread-pool and
# parallel-determinism binaries with {fast|slow, tsan}.  This cannot be
# expressed through gtest_discover_tests(PROPERTIES LABELS ...) because its
# forwarding flattens list values to separate arguments.
#
# Keep the stem -> speed pairs in sync with CSRL_SLOW_TESTS /
# CSRL_TSAN_TESTS in CMakeLists.txt.
foreach(entry IN ITEMS "test_thread_pool:fast" "test_parallel_determinism:slow"
        "test_erlang_phase:fast" "test_obs:fast" "test_kernels:fast"
        "test_spmm:fast" "test_batch:slow" "test_service:fast"
        "test_lumping:fast" "test_lump_checker:fast")
  string(REPLACE ":" ";" entry "${entry}")
  list(GET entry 0 stem)
  list(GET entry 1 speed)
  file(GLOB tests_files "${CMAKE_CURRENT_LIST_DIR}/${stem}*_tests.cmake")
  foreach(tests_file IN LISTS tests_files)
    file(STRINGS "${tests_file}" add_test_lines REGEX "^add_test\\(")
    foreach(line IN LISTS add_test_lines)
      if(line MATCHES "^add_test\\(\\[=\\[([^]]+)\\]=\\]")
        set_tests_properties("${CMAKE_MATCH_1}" PROPERTIES
                             LABELS "${speed};tsan")
      endif()
    endforeach()
  endforeach()
endforeach()

# Single tests of other binaries that run the pool at several thread
# counts.
foreach(test IN ITEMS "SericolaEngine.GridMatchesOneColumnOracleBitwise")
  set_tests_properties("${test}" PROPERTIES LABELS "fast;tsan")
endforeach()
