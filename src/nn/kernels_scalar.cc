/// \file kernels_scalar.cc
/// The bit-exact scalar kernel tier, plus the historical reference loops.
/// Every accumulation here is a plain mul-then-add chain in ascending
/// contraction order (the determinism contract in kernels.h); this
/// translation unit is compiled with -ffp-contract=off so the compiler can
/// never fuse those chains into FMAs behind the contract's back. The AVX2
/// tier (kernels_simd_avx2.cc) is gated against this tier at a documented
/// tolerance; the scalar tier itself is gated against `reference` bit for
/// bit.

#include <algorithm>
#include <cmath>

#include "nn/kernels.h"
#include "nn/kernels_internal.h"
#include "util/check.h"

namespace qcfe {
namespace kernels {
namespace internal {

namespace {

/// The historical sparse row-skip product: i-k-j order, streaming over
/// contiguous rows of b, skipping zero entries of a. Accumulates in the
/// output memory (zero-seeded, ascending k per element). Cost is
/// proportional to the non-zeros of a, which wins on plan feature rows.
void SparseNN(const Matrix& a, const Matrix& b, Matrix* out) {
  QCFE_CHECK(a.cols() == b.rows(), "GemmNN: a.cols() must equal b.rows()");
  QCFE_CHECK(out != &a && out != &b, "GemmNN: out must not alias an input");
  out->ResetShape(a.rows(), b.cols());
  const size_t m = a.rows();
  const size_t kk = a.cols();
  const size_t n = b.cols();
  for (size_t i = 0; i < m; ++i) {
    const double* arow = a.RowPtr(i);
    double* __restrict orow = out->RowPtr(i);
    for (size_t k = 0; k < kk; ++k) {
      double av = arow[k];
      if (av == 0.0) continue;
      const double* __restrict brow = b.RowPtr(k);
      for (size_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

/// Register-blocked dense product with optional fused bias / bias+ReLU
/// epilogue. Every output element owns one accumulator, zero-seeded,
/// streaming k in ascending order — the same addition chain as the sparse
/// path (zero products cannot change the accumulator bits), so dispatch
/// never changes results. The fixed-trip full-panel inner loop is what the
/// compiler vectorises; ragged edges take the bounded generic loop.
template <Epilogue kEpilogue>
void DenseNN(const Matrix& a, const Matrix& b, const Matrix* bias,
             Matrix* out) {
  QCFE_CHECK(a.cols() == b.rows(), "GemmNN: a.cols() must equal b.rows()");
  QCFE_CHECK(out != &a && out != &b, "GemmNN: out must not alias an input");
  QCFE_DCHECK(kEpilogue == Epilogue::kNone ||
                  (bias != nullptr && bias->rows() == 1 &&
                   bias->cols() == b.cols()),
              "fused epilogue requires a 1 x n bias row");
  out->ResetShapeUninitialized(a.rows(), b.cols());
  const size_t m = a.rows();
  const size_t kk = a.cols();
  const size_t n = b.cols();
  const size_t lda = a.ld();
  const size_t ldb = b.ld();
  const double* __restrict ap = a.data().data();
  const double* __restrict bp = b.data().data();
  const double* biasp =
      kEpilogue == Epilogue::kNone ? nullptr : bias->RowPtr(0);
  for (size_t i0 = 0; i0 < m; i0 += kMr) {
    const size_t mr = std::min(kMr, m - i0);
    for (size_t j0 = 0; j0 < n; j0 += kNr) {
      const size_t nr = std::min(kNr, n - j0);
      double acc[kMr][kNr] = {{0.0}};
      if (mr == kMr && nr == kNr) {
        for (size_t k = 0; k < kk; ++k) {
          const double* __restrict brow = bp + k * ldb + j0;
          for (size_t ii = 0; ii < kMr; ++ii) {
            const double av = ap[(i0 + ii) * lda + k];
            for (size_t jj = 0; jj < kNr; ++jj) acc[ii][jj] += av * brow[jj];
          }
        }
      } else {
        for (size_t k = 0; k < kk; ++k) {
          const double* __restrict brow = bp + k * ldb + j0;
          for (size_t ii = 0; ii < mr; ++ii) {
            const double av = ap[(i0 + ii) * lda + k];
            for (size_t jj = 0; jj < nr; ++jj) acc[ii][jj] += av * brow[jj];
          }
        }
      }
      for (size_t ii = 0; ii < mr; ++ii) {
        double* dst = out->RowPtr(i0 + ii) + j0;
        for (size_t jj = 0; jj < nr; ++jj) {
          double v = acc[ii][jj];
          if (kEpilogue != Epilogue::kNone) v += biasp[j0 + jj];
          if (kEpilogue == Epilogue::kBiasRelu) v = v > 0.0 ? v : 0.0;
          dst[jj] = v;
        }
      }
    }
  }
}

void DenseNNDispatch(const Matrix& a, const Matrix& b, const Matrix* bias,
                     Matrix* out, Epilogue e) {
  switch (e) {
    case Epilogue::kNone:
      DenseNN<Epilogue::kNone>(a, b, bias, out);
      return;
    case Epilogue::kBias:
      DenseNN<Epilogue::kBias>(a, b, bias, out);
      return;
    case Epilogue::kBiasRelu:
      DenseNN<Epilogue::kBiasRelu>(a, b, bias, out);
      return;
  }
}

/// Register-blocked a^T * b over row segments: each (a.cols x b.cols)
/// output panel accumulates while one segment's rows stream past; rows
/// whose a-panel entries are all exactly zero are skipped (their products
/// are ±0.0 and cannot change the accumulators). Every segment starts from
/// a zero panel, and each finished segment panel is added onto the
/// destination in one pass, in segment order — the register-resident
/// replacement for "materialise a^T * b per segment, then Add() each", for
/// acc rows [i_begin, i_end) only.
void DenseATAccumulate(const Matrix& a, const Matrix& b, const size_t* bounds,
                       size_t num_segments, size_t i_begin, size_t i_end,
                       Matrix* out) {
  QCFE_CHECK(a.rows() == b.rows(), "GemmAT: a.rows() must equal b.rows()");
  QCFE_CHECK(out != &a && out != &b, "GemmAT: out must not alias an input");
  QCFE_CHECK(out->rows() == a.cols() && out->cols() == b.cols(),
             "GemmATAccumulateSegments: acc must be pre-shaped to a.cols x "
             "b.cols");
  QCFE_CHECK(i_begin <= i_end && i_end <= a.cols(),
             "GemmATAccumulateSegments: output row range outside acc");
  const size_t n = b.cols();
  for (size_t i0 = i_begin; i0 < i_end; i0 += kMr) {
    const size_t mr = std::min(kMr, i_end - i0);
    for (size_t j0 = 0; j0 < n; j0 += kNr) {
      const size_t nr = std::min(kNr, n - j0);
      for (size_t s = 0; s < num_segments; ++s) {
        double acc[kMr][kNr] = {{0.0}};
        if (mr == kMr && nr == kNr) {
          // Fixed trip counts keep the accumulator panel in registers.
          for (size_t r = bounds[s]; r < bounds[s + 1]; ++r) {
            const double* __restrict arow = a.RowPtr(r) + i0;
            const double* __restrict brow = b.RowPtr(r) + j0;
            double av[kMr];
            bool any = false;
            for (size_t ii = 0; ii < kMr; ++ii) {
              av[ii] = arow[ii];
              any = any || av[ii] != 0.0;
            }
            if (!any) continue;
            for (size_t ii = 0; ii < kMr; ++ii) {
              for (size_t jj = 0; jj < kNr; ++jj) {
                acc[ii][jj] += av[ii] * brow[jj];
              }
            }
          }
        } else {
          for (size_t r = bounds[s]; r < bounds[s + 1]; ++r) {
            const double* __restrict arow = a.RowPtr(r) + i0;
            const double* __restrict brow = b.RowPtr(r) + j0;
            for (size_t ii = 0; ii < mr; ++ii) {
              const double av = arow[ii];
              if (av == 0.0) continue;
              for (size_t jj = 0; jj < nr; ++jj) acc[ii][jj] += av * brow[jj];
            }
          }
        }
        for (size_t ii = 0; ii < mr; ++ii) {
          double* dst = out->RowPtr(i0 + ii) + j0;
          for (size_t jj = 0; jj < nr; ++jj) {
            dst[jj] += acc[ii][jj];
          }
        }
      }
    }
  }
}

void DenseATOverwrite(const Matrix& a, const Matrix& b, Matrix* out) {
  QCFE_CHECK(out != &a && out != &b, "GemmAT: out must not alias an input");
  // +0 + chain == chain (a chain seeded at +0 never rounds to -0), so the
  // overwrite is the one-segment accumulate onto a zeroed output.
  out->ResetShape(a.cols(), b.cols());
  const size_t whole[2] = {0, a.rows()};
  DenseATAccumulate(a, b, whole, 1, 0, a.cols(), out);
}

/// Streaming zero-skip a^T * b (overwrite): the historical i-k-j loop,
/// accumulating in the output memory. Per-element chains are identical to
/// the register panel's (ascending row order, zero terms skipped), so the
/// small-row dispatch between them never changes bits.
void StreamAT(const Matrix& a, const Matrix& b, Matrix* out) {
  QCFE_CHECK(a.rows() == b.rows(), "GemmAT: a.rows() must equal b.rows()");
  QCFE_CHECK(out != &a && out != &b, "GemmAT: out must not alias an input");
  out->ResetShape(a.cols(), b.cols());
  for (size_t r = 0; r < a.rows(); ++r) {
    const double* arow = a.RowPtr(r);
    const double* brow = b.RowPtr(r);
    for (size_t i = 0; i < a.cols(); ++i) {
      double av = arow[i];
      if (av == 0.0) continue;
      double* orow = out->RowPtr(i);
      for (size_t j = 0; j < b.cols(); ++j) orow[j] += av * brow[j];
    }
  }
}

/// Register-blocked a * b^T: for each row of a, kNr dot products build
/// concurrently — kNr independent ascending-k accumulator chains (the
/// reference loop's exact chains, but with the FMA-latency serialisation of
/// a lone dot product hidden behind kNr-way ILP, and each a-row's streamed
/// read amortised over kNr b-rows).
void DenseBT(const Matrix& a, const Matrix& b, Matrix* out) {
  QCFE_CHECK(a.cols() == b.cols(), "GemmBT: a.cols() must equal b.cols()");
  QCFE_CHECK(out != &a && out != &b, "GemmBT: out must not alias an input");
  out->ResetShapeUninitialized(a.rows(), b.rows());
  const size_t m = a.rows();
  const size_t n = b.rows();
  const size_t kk = a.cols();
  for (size_t i = 0; i < m; ++i) {
    const double* __restrict arow = a.RowPtr(i);
    double* __restrict orow = out->RowPtr(i);
    size_t j0 = 0;
    for (; j0 + kNr <= n; j0 += kNr) {
      const double* __restrict bp[kNr];
      for (size_t jj = 0; jj < kNr; ++jj) bp[jj] = b.RowPtr(j0 + jj);
      double acc[kNr] = {0.0};
      for (size_t k = 0; k < kk; ++k) {
        const double av = arow[k];
        for (size_t jj = 0; jj < kNr; ++jj) acc[jj] += av * bp[jj][k];
      }
      for (size_t jj = 0; jj < kNr; ++jj) orow[j0 + jj] = acc[jj];
    }
    for (; j0 < n; ++j0) {
      const double* __restrict brow = b.RowPtr(j0);
      double acc = 0.0;
      for (size_t k = 0; k < kk; ++k) acc += arow[k] * brow[k];
      orow[j0] = acc;
    }
  }
}

/// Column-blocked stack buffer: each segment's column sums are built
/// zero-seeded in ascending row order, then added to the destination once,
/// segment by segment — the exact "ColSum() then Add()" chains per segment
/// without the temporary matrix. The vertical (no cross-lane) reductions
/// make this op bit-identical in every tier.
void ColSumAccumulateImpl(const Matrix& a, const size_t* bounds,
                          size_t num_segments, Matrix* acc) {
  constexpr size_t kCb = 256;
  const size_t n = a.cols();
  double buf[kCb];
  for (size_t c0 = 0; c0 < n; c0 += kCb) {
    const size_t cb = std::min(kCb, n - c0);
    double* dst = acc->RowPtr(0) + c0;
    for (size_t s = 0; s < num_segments; ++s) {
      std::fill(buf, buf + cb, 0.0);
      for (size_t r = bounds[s]; r < bounds[s + 1]; ++r) {
        const double* __restrict src = a.RowPtr(r) + c0;
        for (size_t c = 0; c < cb; ++c) buf[c] += src[c];
      }
      for (size_t c = 0; c < cb; ++c) dst[c] += buf[c];
    }
  }
}

/// Scalar Adam update: two muls + one add per moment, IEEE sqrt/div. The
/// AVX2 tier replays exactly these operations lane-wise (each a single
/// rounding), so the optimizer step is bit-identical across tiers.
void AdamStepImpl(double* __restrict p, const double* __restrict g,
                  double* __restrict m, double* __restrict v, size_t n,
                  double lr, double beta1, double beta2, double eps,
                  double bc1, double bc2) {
  for (size_t k = 0; k < n; ++k) {
    double gk = g[k];
    m[k] = beta1 * m[k] + (1.0 - beta1) * gk;
    v[k] = beta2 * v[k] + (1.0 - beta2) * gk * gk;
    double mhat = m[k] / bc1;
    double vhat = v[k] / bc2;
    p[k] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

}  // namespace

void BiasPass(const Matrix& bias, Matrix* out) {
  QCFE_CHECK(bias.rows() == 1 && bias.cols() == out->cols(),
             "bias must be a 1 x out-cols row vector");
  const double* src = bias.RowPtr(0);
  for (size_t r = 0; r < out->rows(); ++r) {
    double* dst = out->RowPtr(r);
    for (size_t c = 0; c < out->cols(); ++c) dst[c] += src[c];
  }
}

void ReluPass(Matrix* out) {
  // Flat walk is pad-safe: relu(0) == 0.
  for (double& x : out->data()) x = x > 0.0 ? x : 0.0;
}

const KernelTable& ScalarTable() {
  static const KernelTable table = {
      DenseNNDispatch,       // dense_nn
      SparseNN,              // sparse_nn
      DenseBT,               // bt
      DenseATOverwrite,      // at_panel
      StreamAT,              // at_stream
      DenseATAccumulate,     // at_acc_panel
      ColSumAccumulateImpl,  // colsum_acc
      AdamStepImpl,          // adam_step
  };
  return table;
}

}  // namespace internal

// ------------------------------------------------------------- reference
// The historical unblocked loops, self-contained (no dispatch, no tiers).
// Parity tests compare the whole scalar tier against these bit for bit.

namespace reference {

namespace {

void RefSparseNN(const Matrix& a, const Matrix& b, Matrix* out) {
  QCFE_CHECK(a.cols() == b.rows(), "GemmNN: a.cols() must equal b.rows()");
  out->ResetShape(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.RowPtr(i);
    double* orow = out->RowPtr(i);
    for (size_t k = 0; k < a.cols(); ++k) {
      double av = arow[k];
      if (av == 0.0) continue;
      const double* brow = b.RowPtr(k);
      for (size_t j = 0; j < b.cols(); ++j) orow[j] += av * brow[j];
    }
  }
}

}  // namespace

void GemmNN(const Matrix& a, const Matrix& b, Matrix* out) {
  RefSparseNN(a, b, out);
}

void GemmNNBias(const Matrix& a, const Matrix& b, const Matrix& bias,
                Matrix* out) {
  RefSparseNN(a, b, out);
  internal::BiasPass(bias, out);
}

void GemmNNBiasRelu(const Matrix& a, const Matrix& b, const Matrix& bias,
                    Matrix* out) {
  RefSparseNN(a, b, out);
  internal::BiasPass(bias, out);
  internal::ReluPass(out);
}

void GemmBT(const Matrix& a, const Matrix& b, Matrix* out) {
  QCFE_CHECK(a.cols() == b.cols(), "GemmBT: a.cols() must equal b.cols()");
  out->ResetShape(a.rows(), b.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.RowPtr(i);
    double* orow = out->RowPtr(i);
    for (size_t j = 0; j < b.rows(); ++j) {
      const double* brow = b.RowPtr(j);
      double acc = 0.0;
      for (size_t k = 0; k < a.cols(); ++k) acc += arow[k] * brow[k];
      orow[j] = acc;
    }
  }
}

void GemmAT(const Matrix& a, const Matrix& b, Matrix* out) {
  QCFE_CHECK(a.rows() == b.rows(), "GemmAT: a.rows() must equal b.rows()");
  out->ResetShape(a.cols(), b.cols());
  for (size_t r = 0; r < a.rows(); ++r) {
    const double* arow = a.RowPtr(r);
    const double* brow = b.RowPtr(r);
    for (size_t i = 0; i < a.cols(); ++i) {
      double av = arow[i];
      if (av == 0.0) continue;
      double* orow = out->RowPtr(i);
      for (size_t j = 0; j < b.cols(); ++j) orow[j] += av * brow[j];
    }
  }
}

void GemmATAccumulate(const Matrix& a, const Matrix& b, Matrix* acc) {
  // The historical path, temporary included: parity tests and the
  // before/after benchmark both rely on replaying it exactly.
  Matrix tmp;
  GemmAT(a, b, &tmp);
  acc->Add(tmp);
}

void ColSumAccumulate(const Matrix& a, Matrix* acc) {
  acc->Add(a.ColSum());
}

}  // namespace reference

}  // namespace kernels
}  // namespace qcfe
