#include "adapt/drift_detector.h"

#include <algorithm>
#include <cmath>
#include <limits>


namespace qcfe {
namespace adapt {

namespace {

/// A window sample as the detector reads it. A NaN q-error is an
/// unmeasurable prediction, read as infinitely wrong (+inf); anything below
/// 1.0 (zero, negative, denormal, -inf) is impossible for a real q-error
/// and reads as a perfect 1.0. Valid q-errors pass through unchanged.
double Sanitized(double qerror) {
  if (std::isnan(qerror)) return std::numeric_limits<double>::infinity();
  return std::max(qerror, 1.0);
}

/// The largest Page–Hinkley log term: log(DBL_MAX). Every finite q-error's
/// log is at most this, so only +inf is clamped, and the cumulative
/// statistic stays finite (an unclamped inf term would make it inf - inf).
const double kMaxLogQError = std::log(std::numeric_limits<double>::max());

}  // namespace

DriftVerdict DetectDrift(const std::vector<double>& window_qerrors,
                         double baseline_mean_qerror,
                         const DriftConfig& config) {
  DriftVerdict v;
  v.samples = window_qerrors.size();
  v.baseline_mean_qerror =
      std::isnan(baseline_mean_qerror) ? 1.0
                                       : std::max(baseline_mean_qerror, 1.0);

  // Page–Hinkley on x_i = log(q_i): cumulative deviation of the sequence
  // above its running mean (minus the per-sample allowance), tracked
  // against the historical minimum. Log space makes the statistic scale-
  // free: a 2x q-error degradation contributes log(2) per sample whether
  // the baseline q-error was 1.1 or 11. Single forward pass in sample
  // order — bit-deterministic for a given window. The same pass sums the
  // window for its mean, in Mean()'s order.
  double window_sum = 0.0;
  double running_sum = 0.0;
  double m = 0.0;
  double m_min = 0.0;
  for (size_t i = 0; i < window_qerrors.size(); ++i) {
    const double q = Sanitized(window_qerrors[i]);
    window_sum += q;
    const double x = std::min(std::log(q), kMaxLogQError);
    running_sum += x;
    const double running_mean = running_sum / static_cast<double>(i + 1);
    m += x - running_mean - config.ph_delta;
    m_min = std::min(m_min, m);
    v.page_hinkley_stat = m - m_min;
  }
  v.window_mean_qerror =
      v.samples == 0 ? 0.0 : window_sum / static_cast<double>(v.samples);

  if (v.samples < config.min_samples) return v;  // all fields, no trip
  // An infinite mean (an infinite or NaN sample, or an overflowing sum)
  // trips whatever the baseline.
  v.mean_trip = std::isinf(v.window_mean_qerror) ||
                v.window_mean_qerror >
                    config.mean_ratio_threshold * v.baseline_mean_qerror;
  v.page_hinkley_trip = v.page_hinkley_stat > config.ph_lambda;
  v.drifted = v.mean_trip || v.page_hinkley_trip;
  return v;
}

DriftDetector::DriftDetector(const DriftConfig& config) : config_(config) {}

void DriftDetector::SetBaselines(const std::map<int, double>& baselines) {
  MutexLock lock(&mu_);
  baselines_ = baselines;
}

DriftVerdict DriftDetector::Evaluate(
    int env_id, const std::vector<double>& window_qerrors) const {
  double baseline = config_.fallback_baseline;
  {
    MutexLock lock(&mu_);
    auto it = baselines_.find(env_id);
    if (it != baselines_.end()) baseline = it->second;
  }
  // Pure computation outside the lock: Evaluate never blocks SetBaselines.
  return DetectDrift(window_qerrors, baseline, config_);
}

}  // namespace adapt
}  // namespace qcfe
