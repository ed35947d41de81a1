// lint-as: src/core/knobs.cc
// Corpus for no-getenv: a new environment knob outside util/env_config.
#include <cstdlib>

int Knob() {
  const char* a = std::getenv("QCFE_NEW_KNOB");  // expect-lint: no-getenv
  const char* b = getenv("QCFE_OTHER_KNOB");  // expect-lint: no-getenv
  const char* c = secure_getenv("QCFE_THIRD");  // expect-lint: no-getenv
  // A mention of getenv("X") in a comment or "getenv(" in a string is fine.
  const char* d = "getenv(";
  const char* e = std::getenv("QCFE_ALLOWED");  // qcfe-lint: allow(no-getenv) -- corpus suppression
  return (a && b && c && d && e) ? 1 : 0;
}
