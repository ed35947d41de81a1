#ifndef QCFE_NN_MATRIX_H_
#define QCFE_NN_MATRIX_H_

/// \file matrix.h
/// Dense row-major double matrix. This is the numeric workhorse of the
/// from-scratch neural-network library (the PyTorch substitute): batches are
/// rows, features are columns.
///
/// Storage layout (SIMD contract). Rows are stored with a padded leading
/// dimension: ld() is cols() rounded up to a multiple of 8 doubles (64
/// bytes), and the buffer itself is 64-byte aligned, so every RowPtr() is
/// cache-line aligned and vector loads in the kernel tiers never straddle
/// lines. The pad columns (ld() - cols() trailing doubles of each row) are
/// **always exactly zero**; every Matrix mutator maintains this invariant.
/// Flat iteration over data() is therefore safe for zero-preserving
/// elementwise operations (x+0, x*0, relu(0), ...) but must never write a
/// non-zero into the pad region. size() returns the physical buffer length
/// (rows() * ld()), which equals rows() * cols() only when cols() is a
/// multiple of 8.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/aligned.h"
#include "util/check.h"

namespace qcfe {

class Rng;

/// Row-major dense matrix of doubles with 64-byte-aligned, pad-to-8 rows.
class Matrix {
 public:
  /// The aligned backing store type; data() exposes it directly.
  using Buffer = std::vector<double, AlignedAllocator<double, kMatrixAlignBytes>>;

  Matrix() : rows_(0), cols_(0), ld_(0) {}
  /// Zero-initialised rows x cols matrix.
  Matrix(size_t rows, size_t cols)
      : rows_(rows),
        cols_(cols),
        ld_(LeadingDim(cols)),
        data_(rows * LeadingDim(cols), 0.0) {}
  /// Copies a flat row-major buffer (size must be rows*cols) into the
  /// padded layout.
  Matrix(size_t rows, size_t cols, const std::vector<double>& flat)
      : Matrix(rows, cols) {
    QCFE_CHECK(flat.size() == rows * cols,
               "flat buffer size must equal rows*cols");
    for (size_t r = 0; r < rows_; ++r) {
      const double* src = flat.data() + r * cols_;
      double* dst = RowPtr(r);
      for (size_t c = 0; c < cols_; ++c) dst[c] = src[c];
    }
  }

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  /// Leading dimension: the physical distance (in doubles) between row
  /// starts. cols() rounded up to a multiple of 8; 0 for empty matrices.
  size_t ld() const { return ld_; }
  /// Physical buffer length, rows() * ld() — NOT the logical element count
  /// unless cols() is a multiple of 8.
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& At(size_t r, size_t c) {
    QCFE_DCHECK(r < rows_ && c < cols_, "Matrix::At index out of range");
    return data_[r * ld_ + c];
  }
  double At(size_t r, size_t c) const {
    QCFE_DCHECK(r < rows_ && c < cols_, "Matrix::At index out of range");
    return data_[r * ld_ + c];
  }

  double* RowPtr(size_t r) {
    QCFE_DCHECK(r < rows_ || size() == 0, "Matrix::RowPtr row out of range");
    QCFE_DCHECK(
        (reinterpret_cast<uintptr_t>(data_.data() + r * ld_) &
         (kMatrixAlignBytes - 1)) == 0,
        "Matrix::RowPtr row storage is not 64-byte aligned");
    return data_.data() + r * ld_;
  }
  const double* RowPtr(size_t r) const {
    QCFE_DCHECK(r < rows_ || size() == 0, "Matrix::RowPtr row out of range");
    QCFE_DCHECK(
        (reinterpret_cast<uintptr_t>(data_.data() + r * ld_) &
         (kMatrixAlignBytes - 1)) == 0,
        "Matrix::RowPtr row storage is not 64-byte aligned");
    return data_.data() + r * ld_;
  }

  Buffer& data() { return data_; }
  const Buffer& data() const { return data_; }

  /// Sets every entry to v.
  void Fill(double v);

  /// Overwrites one row from a vector (size must equal cols()).
  void SetRow(size_t r, const std::vector<double>& values);

  /// Returns a new matrix restricted to the given rows (in the given order).
  Matrix SelectRows(const std::vector<size_t>& indices) const;

  /// Returns a new matrix restricted to the given columns (in order).
  Matrix SelectCols(const std::vector<size_t>& indices) const;

  /// Reshapes to rows x cols and zeroes every entry (contents are not
  /// preserved). Capacity-preserving: when the new size fits the existing
  /// allocation the buffer is reused, so repeated same-shape calls (e.g.
  /// ForwardInto on steady batch sizes) never touch the allocator.
  void ResetShape(size_t rows, size_t cols);

  /// Like ResetShape but leaves the logical contents unspecified — for
  /// kernels that overwrite every entry, this skips the zeroing pass
  /// entirely on the same-shape fast path. The pad columns are still
  /// guaranteed zero afterwards (the layout invariant).
  void ResetShapeUninitialized(size_t rows, size_t cols);

  /// Matrix product: (m x k) * (k x n) -> (m x n).
  static Matrix MatMul(const Matrix& a, const Matrix& b);

  /// out = a * b without allocating when `out` already has capacity; the
  /// arithmetic is element-for-element identical to MatMul. `out` must not
  /// alias `a` or `b`.
  static void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out);

  /// a^T * b without materialising the transpose: (k x m) * (k x n) -> (m x n).
  static Matrix MatMulAT(const Matrix& a, const Matrix& b);

  Matrix Transposed() const;

  /// this += other (same shape).
  void Add(const Matrix& other);
  /// this *= scalar.
  void Scale(double s);

  /// Column-wise sum producing a 1 x cols row vector.
  Matrix ColSum() const;

  /// Gaussian init: N(0, stddev). Used for weight initialisation.
  void RandomizeGaussian(Rng* rng, double stddev);

 private:
  /// Rows are padded to a multiple of 8 doubles so each row starts on a
  /// 64-byte boundary of the (64-byte-aligned) buffer.
  static size_t LeadingDim(size_t cols) {
    constexpr size_t kPad = kMatrixAlignBytes / sizeof(double);
    return (cols + kPad - 1) / kPad * kPad;
  }

  /// Re-establishes the zeros in the pad columns (used after layout
  /// changes that may expose stale buffer contents there).
  void ZeroPadColumns();

  size_t rows_;
  size_t cols_;
  size_t ld_;
  Buffer data_;
};

}  // namespace qcfe

#endif  // QCFE_NN_MATRIX_H_
