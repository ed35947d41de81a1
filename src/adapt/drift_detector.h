#ifndef QCFE_ADAPT_DRIFT_DETECTOR_H_
#define QCFE_ADAPT_DRIFT_DETECTOR_H_

/// \file drift_detector.h
/// The "detect" stage of the online adaptation loop.
///
/// A fitted cost model goes stale when the world changes under it — data
/// grows, knobs move, hardware is swapped — and staleness shows up as the
/// serving q-error drifting away from what the model achieved on its own
/// training corpus. Detection here is two complementary tests over an
/// environment's recent q-error window (ObservationSink::WindowQErrors):
///
///  * Mean-ratio: the window's mean q-error versus the fit-time baseline
///    (Pipeline::env_baseline_qerror, persisted in the artifact). Catches
///    sustained level shifts; robust and easy to reason about.
///  * Page–Hinkley: a cumulative one-sided test on log q-error that tracks
///    how far the running sum has risen above its historical minimum.
///    Catches a fresh upward drift inside a window whose overall mean is
///    still diluted by the pre-drift prefix.
///
/// Both tests are pure functions of (window, baseline, config) — no clock,
/// no hidden state — so a verdict is exactly reproducible from its inputs.
/// DetectDrift is that pure function; DriftDetector adds the per-env
/// baseline/threshold table for serving use.

#include <cstddef>
#include <map>
#include <vector>

#include "util/sync.h"

namespace qcfe {
namespace adapt {

/// Thresholds for one drift evaluation. Defaults are deliberately
/// conservative: a healthy window (q-errors rattling around the baseline)
/// must not trip, while a sustained 2x degradation must.
struct DriftConfig {
  /// No verdict before this many samples are in the window: early windows
  /// are all variance. Also the Page–Hinkley warm-up length.
  size_t min_samples = 32;
  /// Mean-ratio trip: window mean q-error > threshold * baseline.
  double mean_ratio_threshold = 1.5;
  /// Page–Hinkley allowance: drift in mean log q-error smaller than this
  /// per sample is tolerated (absorbs jitter).
  double ph_delta = 0.05;
  /// Page–Hinkley trip threshold on the cumulative statistic.
  double ph_lambda = 4.0;
  /// Baseline used when the caller has none for an environment (a freshly
  /// observed env, or an artifact from before baselines were persisted).
  /// 1.0 is the q-error of a perfect prediction — the strictest sensible
  /// reference.
  double fallback_baseline = 1.0;
};

/// One evaluation's full result — the trip bit plus every intermediate the
/// decision was made from, so callers can log *why*.
struct DriftVerdict {
  bool drifted = false;            ///< mean_trip || page_hinkley_trip
  bool mean_trip = false;
  bool page_hinkley_trip = false;
  size_t samples = 0;              ///< window size the verdict was made on
  double window_mean_qerror = 0.0;
  double baseline_mean_qerror = 0.0;
  double page_hinkley_stat = 0.0;  ///< final cumulative statistic
};

/// Pure drift test over one q-error window (oldest sample first); see the
/// file comment for the two criteria. Never trips on fewer than
/// config.min_samples samples. `baseline_mean_qerror` values below 1.0
/// (impossible for a real q-error mean) and NaN are clamped to 1.0 so a
/// corrupt or zero baseline cannot make the mean-ratio test hair-triggered.
/// Total over any window: a NaN sample reads as +inf and a sample below
/// 1.0 as 1.0, the Page–Hinkley statistic stays finite, no verdict field
/// is ever NaN, and an infinite window mean always trips the mean-ratio
/// test (so one +inf or NaN sample trips a window of min_samples).
DriftVerdict DetectDrift(const std::vector<double>& window_qerrors,
                         double baseline_mean_qerror,
                         const DriftConfig& config);

/// Per-environment baseline/threshold table around DetectDrift.
/// Thread-safe: serving threads Evaluate while the adaptation controller
/// refreshes baselines after a retrain. Lock rank:
/// lock_rank::kDriftDetector, a leaf (the evaluation itself runs on
/// copied-out values).
class DriftDetector {
 public:
  explicit DriftDetector(const DriftConfig& defaults = {});

  /// Sets (or replaces) an environment's baseline mean q-error.
  void SetBaseline(int env_id, double mean_qerror);
  /// Replaces all baselines with `baselines` (typically
  /// Pipeline::env_baseline_qerror after a fit or retrain).
  void SetBaselines(const std::map<int, double>& baselines);
  /// The environment's baseline, or the configured fallback.
  double Baseline(int env_id) const;

  /// Per-environment threshold override (unset envs use the defaults).
  void SetEnvConfig(int env_id, const DriftConfig& config);

  /// DetectDrift with this environment's baseline and thresholds.
  DriftVerdict Evaluate(int env_id,
                        const std::vector<double>& window_qerrors) const;

 private:
  mutable Mutex mu_{lock_rank::kDriftDetector};
  DriftConfig defaults_ QCFE_GUARDED_BY(mu_);
  std::map<int, double> baselines_ QCFE_GUARDED_BY(mu_);
  std::map<int, DriftConfig> env_configs_ QCFE_GUARDED_BY(mu_);
};

}  // namespace adapt
}  // namespace qcfe

#endif  // QCFE_ADAPT_DRIFT_DETECTOR_H_
