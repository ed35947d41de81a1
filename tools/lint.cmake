# Wiring for tools/qcfe_lint.py, the project's determinism/contract lint,
# and for the self-test of tools/reachability.py.
#
#   cmake --build build --target lint    # scan the real tree, fail on findings
#   ctest -R lint_test                   # corpus self-test + real-tree scan
#   ctest -R reachability_self_test      # symbol-name parsing + allowlist rules
#
# The scanner is dependency-free Python; if no interpreter exists the target
# degrades to a no-op with a warning instead of breaking the build.

find_package(Python3 COMPONENTS Interpreter QUIET)

if(Python3_Interpreter_FOUND)
  set(QCFE_LINT_COMMAND
      ${Python3_EXECUTABLE} ${CMAKE_CURRENT_SOURCE_DIR}/tools/qcfe_lint.py)

  add_custom_target(lint
    COMMAND ${QCFE_LINT_COMMAND}
    WORKING_DIRECTORY ${CMAKE_CURRENT_SOURCE_DIR}
    COMMENT "qcfe_lint: scanning src/ tests/ bench/ examples/"
    VERBATIM)
else()
  add_custom_target(lint
    COMMAND ${CMAKE_COMMAND} -E echo
            "qcfe_lint skipped: no python3 interpreter found"
    COMMENT "qcfe_lint: skipped (python3 not found)"
    VERBATIM)
  message(WARNING "python3 not found; the `lint` target is a no-op")
endif()

# Registers the ctest entry once testing is enabled. Called from the top-level
# CMakeLists after enable_testing() so the test is not silently dropped.
function(qcfe_register_lint_test)
  if(Python3_Interpreter_FOUND)
    add_test(NAME lint_test
             COMMAND ${QCFE_LINT_COMMAND} --self-test
             WORKING_DIRECTORY ${CMAKE_CURRENT_SOURCE_DIR})
    # The reachability check itself needs a dedicated -O0 build (see the
    # tool's docstring); its self-test needs none.
    add_test(NAME reachability_self_test
             COMMAND ${Python3_EXECUTABLE}
                     ${CMAKE_CURRENT_SOURCE_DIR}/tools/reachability.py
                     --self-test
             WORKING_DIRECTORY ${CMAKE_CURRENT_SOURCE_DIR})
  endif()
endfunction()
