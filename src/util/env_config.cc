#include "util/env_config.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "util/clock.h"
#include "util/string_util.h"

namespace qcfe {

RunScale GetRunScale() {
  const char* v = std::getenv("QCFE_SCALE");
  if (v != nullptr && ToLower(v) == "full") return RunScale::kFull;
  return RunScale::kQuick;
}

size_t ScaledCount(size_t paper_count, size_t divisor, size_t min_quick) {
  if (GetRunScale() == RunScale::kFull) return paper_count;
  size_t scaled = paper_count / (divisor == 0 ? 1 : divisor);
  return scaled < min_quick ? min_quick : scaled;
}

std::string RunScaleName() {
  return GetRunScale() == RunScale::kFull ? "full" : "quick";
}

namespace {

/// Strict integer parse; malformed values fall back to serial (1) with a
/// warning rather than silently becoming 0 = all hardware threads.
int ParseThreadCount(const char* text, const char* origin) {
  char* end = nullptr;
  long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0') {
    std::fprintf(stderr, "warning: ignoring non-numeric %s value \"%s\"\n",
                 origin, text);
    return 1;
  }
  return static_cast<int>(value);
}

}  // namespace

int ThreadsFromArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--threads=", 0) == 0) {
      return ParseThreadCount(arg.c_str() + 10, "--threads");
    }
    if (arg == "--threads" && i + 1 < argc) {
      return ParseThreadCount(argv[i + 1], "--threads");
    }
  }
  const char* env = std::getenv("QCFE_THREADS");
  if (env != nullptr && *env != '\0') {
    return ParseThreadCount(env, "QCFE_THREADS");
  }
  return 1;
}

WallTimer::WallTimer() : WallTimer(Clock::Real()) {}

WallTimer::WallTimer(const Clock* clock) : clock_(clock), start_(Now()) {}

double WallTimer::Now() const {
  const Clock* clock = clock_ != nullptr ? clock_ : Clock::Real();
  return 1e-6 * static_cast<double>(clock->NowMicros());
}

double WallTimer::Seconds() const { return Now() - start_; }

}  // namespace qcfe
