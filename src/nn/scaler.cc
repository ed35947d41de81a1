#include "nn/scaler.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "nn/matrix_io.h"
#include "util/serialize.h"

namespace qcfe {

namespace {
constexpr double kMinStd = 1e-9;
}  // namespace

void StandardScaler::Fit(const Matrix& x) {
  size_t n = x.rows(), d = x.cols();
  mean_.assign(d, 0.0);
  std_.assign(d, 1.0);
  if (n == 0) return;
  for (size_t r = 0; r < n; ++r) {
    const double* row = x.RowPtr(r);
    for (size_t c = 0; c < d; ++c) mean_[c] += row[c];
  }
  for (size_t c = 0; c < d; ++c) mean_[c] /= static_cast<double>(n);
  std::vector<double> var(d, 0.0);
  for (size_t r = 0; r < n; ++r) {
    const double* row = x.RowPtr(r);
    for (size_t c = 0; c < d; ++c) {
      double dv = row[c] - mean_[c];
      var[c] += dv * dv;
    }
  }
  for (size_t c = 0; c < d; ++c) {
    std_[c] = std::sqrt(var[c] / static_cast<double>(n));
    if (std_[c] < kMinStd) std_[c] = 1.0;  // constant column -> exact zero out
  }
}

void StandardScaler::TransformInPlace(std::vector<double>* row) const {
  for (size_t c = 0; c < row->size(); ++c) {
    (*row)[c] = ((*row)[c] - mean_[c]) / std_[c];
  }
}

Status StandardScaler::ShrinkTo(const std::vector<size_t>& kept_columns) {
  std::vector<double> nm, ns;
  for (size_t c : kept_columns) {
    if (c >= mean_.size()) return Status::OutOfRange("scaler column");
    nm.push_back(mean_[c]);
    ns.push_back(std_[c]);
  }
  mean_ = std::move(nm);
  std_ = std::move(ns);
  return Status::OK();
}

void LogTargetScaler::Fit(const std::vector<double>& y) {
  fitted_ = true;
  if (y.empty()) {
    mean_ = 0.0;
    std_ = 1.0;
    return;
  }
  double sum = 0.0;
  for (double v : y) sum += std::log1p(std::max(v, 0.0));
  mean_ = sum / static_cast<double>(y.size());
  double var = 0.0;
  for (double v : y) {
    double d = std::log1p(std::max(v, 0.0)) - mean_;
    var += d * d;
  }
  std_ = std::sqrt(var / static_cast<double>(y.size()));
  if (std_ < kMinStd) std_ = 1.0;
  t_min_ = HUGE_VAL;
  t_max_ = -HUGE_VAL;
  for (double v : y) {
    double t = TransformOne(v);
    t_min_ = std::min(t_min_, t);
    t_max_ = std::max(t_max_, t);
  }
}

double LogTargetScaler::ClampTransformed(double yt, double margin) const {
  if (!fitted_) return yt;
  if (yt < t_min_) return t_min_;
  if (yt > t_max_ + margin) return t_max_ + margin;
  return yt;
}

double LogTargetScaler::TransformOne(double y) const {
  return (std::log1p(std::max(y, 0.0)) - mean_) / std_;
}

double LogTargetScaler::InverseTransformOne(double yt) const {
  return std::expm1(yt * std_ + mean_);
}

void StandardScaler::SaveBinary(ByteWriter* w) const {
  WriteDoubles(mean_, w);
  WriteDoubles(std_, w);
}

Status StandardScaler::LoadBinary(ByteReader* r) {
  QCFE_RETURN_IF_ERROR(ReadDoubles(r, &mean_));
  QCFE_RETURN_IF_ERROR(ReadDoubles(r, &std_));
  if (mean_.size() != std_.size()) {
    return Status::DataLoss("standard scaler mean/std dimension mismatch (" +
                            std::to_string(mean_.size()) + " vs " +
                            std::to_string(std_.size()) + ")");
  }
  return Status::OK();
}

void LogTargetScaler::SaveBinary(ByteWriter* w) const {
  w->PutBool(fitted_);
  w->PutF64(mean_);
  w->PutF64(std_);
  w->PutF64(t_min_);
  w->PutF64(t_max_);
}

Status LogTargetScaler::LoadBinary(ByteReader* r) {
  QCFE_RETURN_IF_ERROR(r->ReadBool(&fitted_));
  QCFE_RETURN_IF_ERROR(r->ReadF64(&mean_));
  QCFE_RETURN_IF_ERROR(r->ReadF64(&std_));
  QCFE_RETURN_IF_ERROR(r->ReadF64(&t_min_));
  QCFE_RETURN_IF_ERROR(r->ReadF64(&t_max_));
  return Status::OK();
}

}  // namespace qcfe
