#!/bin/bash
# Regenerates tests/CMakeLists.txt from the test sources present.
cat > tests/CMakeLists.txt <<'HDR'
# Unit, integration, and property tests (gtest).

function(cq_add_test name)
  add_executable(${name} ${name}.cc)
  target_link_libraries(${name} PRIVATE
    cq_common cq_obs cq_types cq_stream cq_relation cq_window cq_cql cq_queue
    cq_kvstore cq_ft cq_runtime cq_dataflow cq_duality cq_ivm cq_graph cq_rdf cq_cep cq_sql cq_service cq_shard cq_net cq_workload
    GTest::gtest GTest::gtest_main)
  add_test(NAME ${name} COMMAND ${name})
  # A hang fails the test instead of wedging the run (generous enough for
  # the sanitizer lanes).
  set_tests_properties(${name} PROPERTIES TIMEOUT 300)
endfunction()

HDR
for f in tests/*_test.cc; do
  n=$(basename "$f" .cc)
  echo "cq_add_test($n)" >> tests/CMakeLists.txt
done
