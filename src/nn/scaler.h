#ifndef QCFE_NN_SCALER_H_
#define QCFE_NN_SCALER_H_

/// \file scaler.h
/// Feature/target normalisation. Learned cost models train on standardised
/// features and log-transformed standardised targets; both transforms must be
/// invertible at inference time and serializable with the model.

#include <vector>

#include "nn/matrix.h"
#include "util/status.h"

namespace qcfe {

class ByteReader;
class ByteWriter;

/// Per-column z-score standardiser: x' = (x - mean) / std, with std floored
/// so constant columns map to exactly zero rather than NaN.
class StandardScaler {
 public:
  /// Learns column means/stds from the batch.
  void Fit(const Matrix& x);

  /// Applies the learned transform to one row in place (its length must
  /// match the Fit input's columns).
  void TransformInPlace(std::vector<double>* row) const;

  /// Keeps only the listed columns of the fitted statistics; mirrors
  /// Mlp::ShrinkInputs after feature reduction.
  Status ShrinkTo(const std::vector<size_t>& kept_columns);

  bool fitted() const { return !mean_.empty(); }
  size_t dims() const { return mean_.size(); }
  const std::vector<double>& mean() const { return mean_; }
  const std::vector<double>& stddev() const { return std_; }

  /// Binary form for model artifacts (core/artifact.h): bit-exact doubles.
  void SaveBinary(ByteWriter* w) const;
  Status LoadBinary(ByteReader* r);

 private:
  std::vector<double> mean_;
  std::vector<double> std_;
};

/// Target transform y' = (log1p(y) - mean) / std. Latencies are heavy-tailed;
/// the log keeps MSE from being dominated by the slowest queries (the
/// standard choice in QPPNet/MSCN-style estimators).
class LogTargetScaler {
 public:
  void Fit(const std::vector<double>& y);

  double TransformOne(double y) const;
  /// Inverse transform back to original units (expm1 of de-standardised).
  double InverseTransformOne(double yt) const;

  /// Clamps a transformed prediction to the label range observed at Fit()
  /// time (+ margin above only). Predictions outside the observed range are
  /// never justified and unbounded extrapolation in log space produces
  /// astronomical q-errors. Upward the margin is a benign log-space ratio;
  /// downward it is not applied at all: for sub-millisecond labels
  /// log1p(y) ~ y, so even a small downward margin crosses zero and expm1
  /// would return a *negative* latency — predictions stop at the smallest
  /// observed label instead.
  double ClampTransformed(double yt, double margin = 0.5) const;

  bool fitted() const { return fitted_; }
  double mean() const { return mean_; }
  double stddev() const { return std_; }

  /// Binary form for model artifacts (core/artifact.h): bit-exact doubles.
  void SaveBinary(ByteWriter* w) const;
  Status LoadBinary(ByteReader* r);

 private:
  bool fitted_ = false;
  double mean_ = 0.0;
  double std_ = 1.0;
  double t_min_ = -10.0;
  double t_max_ = 10.0;
};

}  // namespace qcfe

#endif  // QCFE_NN_SCALER_H_
