#include "nn/matrix.h"

#include <algorithm>

#include "nn/kernels.h"
#include "util/rng.h"

namespace qcfe {

void Matrix::Fill(double v) {
  // Row-wise, not flat: a flat fill would write v into the pad columns and
  // break the padding-is-zero layout invariant for any v != 0.
  for (size_t r = 0; r < rows_; ++r) {
    double* dst = RowPtr(r);
    for (size_t c = 0; c < cols_; ++c) dst[c] = v;
  }
}

void Matrix::ZeroPadColumns() {
  if (ld_ == cols_) return;
  for (size_t r = 0; r < rows_; ++r) {
    double* row = data_.data() + r * ld_;
    std::fill(row + cols_, row + ld_, 0.0);
  }
}

void Matrix::SetRow(size_t r, const std::vector<double>& values) {
  QCFE_CHECK(r < rows_ && values.size() == cols_,
             "Matrix::SetRow requires an in-range row and a cols()-sized "
             "vector");
  double* dst = RowPtr(r);
  for (size_t c = 0; c < cols_; ++c) dst[c] = values[c];
}

Matrix Matrix::SelectRows(const std::vector<size_t>& indices) const {
  Matrix out(indices.size(), cols_);
  for (size_t i = 0; i < indices.size(); ++i) {
    QCFE_DCHECK(indices[i] < rows_, "SelectRows index out of range");
    const double* src = RowPtr(indices[i]);
    double* dst = out.RowPtr(i);
    for (size_t c = 0; c < cols_; ++c) dst[c] = src[c];
  }
  return out;
}

Matrix Matrix::SelectCols(const std::vector<size_t>& indices) const {
  Matrix out(rows_, indices.size());
  for (size_t r = 0; r < rows_; ++r) {
    const double* src = RowPtr(r);
    double* dst = out.RowPtr(r);
    for (size_t i = 0; i < indices.size(); ++i) {
      QCFE_DCHECK(indices[i] < cols_, "SelectCols index out of range");
      dst[i] = src[indices[i]];
    }
  }
  return out;
}

void Matrix::ResetShape(size_t rows, size_t cols) {
  ResetShapeUninitialized(rows, cols);
  std::fill(data_.begin(), data_.end(), 0.0);
}

void Matrix::ResetShapeUninitialized(size_t rows, size_t cols) {
  const size_t ld = LeadingDim(cols);
  // Steady-layout fast path: same physical shape means the pad columns are
  // already zero (the invariant every mutator maintains), so nothing at all
  // needs touching.
  if (ld == ld_ && cols == cols_ && rows * ld == data_.size()) {
    rows_ = rows;
    return;
  }
  rows_ = rows;
  cols_ = cols;
  ld_ = ld;
  // resize (not assign) keeps existing elements on the same-size path and
  // never reallocates while the new size fits the current capacity. A
  // layout change can expose stale buffer contents in the new pad region,
  // so re-establish the zeros there.
  data_.resize(rows * ld);
  ZeroPadColumns();
}

Matrix Matrix::MatMul(const Matrix& a, const Matrix& b) {
  Matrix out;
  MatMulInto(a, b, &out);
  return out;
}

void Matrix::MatMulInto(const Matrix& a, const Matrix& b, Matrix* out) {
  // Density-adaptive dispatch (see kernels.h): the sparse row-skip loop for
  // mostly-zero inputs (plan feature rows), the register-blocked dense
  // kernel otherwise — bit-identical either way.
  kernels::GemmNN(a, b, out);
}

Matrix Matrix::MatMulAT(const Matrix& a, const Matrix& b) {
  Matrix out;
  kernels::GemmAT(a, b, &out);
  return out;
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) out.At(c, r) = At(r, c);
  }
  return out;
}

void Matrix::Add(const Matrix& other) {
  QCFE_CHECK(rows_ == other.rows_ && cols_ == other.cols_,
             "Matrix::Add shape mismatch");
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Matrix::Scale(double s) {
  for (double& x : data_) x *= s;
}

Matrix Matrix::ColSum() const {
  Matrix out(1, cols_);
  for (size_t r = 0; r < rows_; ++r) {
    const double* src = RowPtr(r);
    double* dst = out.RowPtr(0);
    for (size_t c = 0; c < cols_; ++c) dst[c] += src[c];
  }
  return out;
}

void Matrix::RandomizeGaussian(Rng* rng, double stddev) {
  // Row-wise: the pad columns must stay zero (and the draw sequence must
  // cover exactly the logical elements, independent of the padded layout).
  for (size_t r = 0; r < rows_; ++r) {
    double* dst = RowPtr(r);
    for (size_t c = 0; c < cols_; ++c) dst[c] = rng->Gaussian(0.0, stddev);
  }
}

}  // namespace qcfe
