// lint-as: src/util/env_config.cc
// Negative corpus for no-getenv: util/env_config is where src/ reads the
// environment — no line here may be flagged.
#include <cstdlib>

const char* Scale() { return std::getenv("QCFE_SCALE"); }
