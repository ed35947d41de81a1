#include "util/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace qcfe {

double QError(double actual, double predicted, double floor) {
  // std::max lets NaN through (every comparison with it is false), so a
  // NaN input would poison any mean or window it reaches.
  if (std::isnan(actual) || std::isnan(predicted)) {
    return std::numeric_limits<double>::infinity();
  }
  double a = std::max(actual, floor);
  double p = std::max(predicted, floor);
  return std::max(a / p, p / a);
}

std::vector<double> QErrors(const std::vector<double>& actual,
                            const std::vector<double>& predicted) {
  assert(actual.size() == predicted.size());
  std::vector<double> out(actual.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    out[i] = QError(actual[i], predicted[i]);
  }
  return out;
}

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double Pearson(const std::vector<double>& a, const std::vector<double>& b) {
  assert(a.size() == b.size());
  if (a.size() < 2) return 0.0;
  double ma = Mean(a), mb = Mean(b);
  double cov = 0.0, va = 0.0, vb = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    double da = a[i] - ma, db = b[i] - mb;
    cov += da * db;
    va += da * da;
    vb += db * db;
  }
  if (va <= 0.0 || vb <= 0.0) return 0.0;
  return cov / std::sqrt(va * vb);
}

double Quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  std::sort(xs.begin(), xs.end());
  double pos = q * static_cast<double>(xs.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, xs.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

MetricSummary Summarize(const std::vector<double>& actual,
                        const std::vector<double>& predicted) {
  MetricSummary s;
  s.count = actual.size();
  if (actual.empty()) return s;
  std::vector<double> qe = QErrors(actual, predicted);
  s.pearson = Pearson(actual, predicted);
  s.mean_qerror = Mean(qe);
  s.median_qerror = Quantile(qe, 0.50);
  s.q25 = Quantile(qe, 0.25);
  s.q75 = Quantile(qe, 0.75);
  s.q90 = Quantile(qe, 0.90);
  s.q95 = Quantile(qe, 0.95);
  s.max_qerror = Quantile(qe, 1.0);
  return s;
}

}  // namespace qcfe
