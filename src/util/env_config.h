#ifndef QCFE_UTIL_ENV_CONFIG_H_
#define QCFE_UTIL_ENV_CONFIG_H_

/// \file env_config.h
/// Run-scale selection for bench binaries. By default benches run a reduced
/// ("quick") configuration so the full suite completes in minutes; setting
/// QCFE_SCALE=full in the environment switches to paper-scale parameters.

#include <cstddef>
#include <string>

namespace qcfe {

/// Which parameter grid the bench binaries use.
enum class RunScale {
  kQuick,  ///< reduced scales; default, CI-friendly
  kFull,   ///< paper-scale grids (slow)
};

/// Reads QCFE_SCALE ("quick"/"full"); defaults to kQuick.
RunScale GetRunScale();

/// Scales a paper-sized count down for quick runs (divides by `divisor`,
/// clamped below by `min_quick`).
size_t ScaledCount(size_t paper_count, size_t divisor, size_t min_quick);

/// Human-readable name of the active scale ("quick" or "full").
std::string RunScaleName();

/// Worker-thread count for bench binaries: parses a `--threads=N` (or
/// `--threads N`) command-line argument, falling back to the QCFE_THREADS
/// environment variable, then to 1 (serial). 0 means one worker per
/// hardware thread. All parallel paths are bit-identical across thread
/// counts, so this flag only changes wall-clock.
int ThreadsFromArgs(int argc, char** argv);

class Clock;

/// Simple monotonic wall timer returning elapsed seconds. By default it
/// reads the real steady clock; tests inject a Clock (util/clock.h) so
/// elapsed-time behaviour can be asserted exactly instead of against
/// wall-clock bounds that flake under load.
class WallTimer {
 public:
  WallTimer();
  /// Timer driven by an injected clock (non-owning; may not be null).
  explicit WallTimer(const Clock* clock);
  /// Seconds since construction.
  double Seconds() const;

 private:
  double Now() const;

  const Clock* clock_ = nullptr;  ///< null = real steady clock
  double start_;
};

}  // namespace qcfe

#endif  // QCFE_UTIL_ENV_CONFIG_H_
