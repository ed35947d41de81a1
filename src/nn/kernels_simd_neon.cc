/// \file kernels_simd_neon.cc
/// The AArch64 NEON kernel tier: the same per-element fused-multiply-add
/// chain design as the AVX2 tier (see kernels_simd_avx2.cc for the full
/// within-tier determinism contract), expressed in 2-lane float64x2_t
/// vectors. Compiled with -ffp-contract=off so only the explicit vfmaq /
/// std::fma calls below ever fuse.

#include "nn/kernels_internal.h"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <algorithm>
#include <cmath>

#include "nn/kernels.h"
#include "util/check.h"

namespace qcfe {
namespace kernels {
namespace internal {
namespace {

/// relu(v) with scalar semantics: -0.0 maps to +0.0. (NaN inputs do not
/// occur on the kernel paths; vmaxnmq would be needed for NaN parity.)
inline float64x2_t Relu(float64x2_t v) {
  return vmaxq_f64(v, vdupq_n_f64(0.0));
}

// ------------------------------------------------------------- GemmNN

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
    size_t j0 = 0;
    // Full 4-column panels: kMr x 2 vector accumulators in registers.
    for (; j0 + 4 <= n; j0 += 4) {
      float64x2_t acc0[kMr];
      float64x2_t acc1[kMr];
      for (size_t ii = 0; ii < kMr; ++ii) {
        acc0[ii] = vdupq_n_f64(0.0);
        acc1[ii] = vdupq_n_f64(0.0);
      }
      for (size_t k = 0; k < kk; ++k) {
        const double* __restrict brow = bp + k * ldb + j0;
        const float64x2_t bv0 = vld1q_f64(brow);
        const float64x2_t bv1 = vld1q_f64(brow + 2);
        for (size_t ii = 0; ii < mr; ++ii) {
          const double av = ap[(i0 + ii) * lda + k];
          acc0[ii] = vfmaq_n_f64(acc0[ii], bv0, av);
          acc1[ii] = vfmaq_n_f64(acc1[ii], bv1, av);
        }
      }
      for (size_t ii = 0; ii < mr; ++ii) {
        float64x2_t v0 = acc0[ii];
        float64x2_t v1 = acc1[ii];
        if (kEpilogue != Epilogue::kNone) {
          v0 = vaddq_f64(v0, vld1q_f64(biasp + j0));
          v1 = vaddq_f64(v1, vld1q_f64(biasp + j0 + 2));
        }
        if (kEpilogue == Epilogue::kBiasRelu) {
          v0 = Relu(v0);
          v1 = Relu(v1);
        }
        double* dst = out->RowPtr(i0 + ii) + j0;
        vst1q_f64(dst, v0);
        vst1q_f64(dst + 2, v1);
      }
    }
    // Scalar tail columns: the same per-element fma chain, one lane wide.
    for (; j0 < n; ++j0) {
      for (size_t ii = 0; ii < mr; ++ii) {
        const double* __restrict arow = ap + (i0 + ii) * lda;
        double acc = 0.0;
        for (size_t k = 0; k < kk; ++k) {
          acc = std::fma(arow[k], bp[k * ldb + j0], acc);
        }
        if (kEpilogue != Epilogue::kNone) acc += biasp[j0];
        if (kEpilogue == Epilogue::kBiasRelu) acc = acc > 0.0 ? acc : 0.0;
        out->RowPtr(i0 + ii)[j0] = acc;
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
      const double av = arow[k];
      if (av == 0.0) continue;
      const double* __restrict brow = b.RowPtr(k);
      size_t j = 0;
      for (; j + 2 <= n; j += 2) {
        vst1q_f64(orow + j,
                  vfmaq_n_f64(vld1q_f64(orow + j), vld1q_f64(brow + j), av));
      }
      for (; j < n; ++j) orow[j] = std::fma(av, brow[j], orow[j]);
    }
  }
}

// ------------------------------------------------------------- GemmBT

/// Fixed-shape lane sum of the 2-lane chain, then the scalar k-tail.
inline double HsumTail(float64x2_t acc, const double* __restrict x,
                       const double* __restrict y, size_t k0, size_t kk) {
  double s = vgetq_lane_f64(acc, 0) + vgetq_lane_f64(acc, 1);
  for (size_t k = k0; k < kk; ++k) s = std::fma(x[k], y[k], s);
  return s;
}

void DenseBT(const Matrix& a, const Matrix& b, Matrix* out) {
  QCFE_CHECK(a.cols() == b.cols(), "GemmBT: a.cols() must equal b.cols()");
  QCFE_CHECK(out != &a && out != &b, "GemmBT: out must not alias an input");
  out->ResetShapeUninitialized(a.rows(), b.rows());
  const size_t m = a.rows();
  const size_t n = b.rows();
  const size_t kk = a.cols();
  const size_t kv = kk - kk % 2;
  for (size_t i = 0; i < m; ++i) {
    const double* __restrict arow = a.RowPtr(i);
    double* __restrict orow = out->RowPtr(i);
    size_t j0 = 0;
    for (; j0 + 4 <= n; j0 += 4) {
      const double* __restrict b0 = b.RowPtr(j0);
      const double* __restrict b1 = b.RowPtr(j0 + 1);
      const double* __restrict b2 = b.RowPtr(j0 + 2);
      const double* __restrict b3 = b.RowPtr(j0 + 3);
      float64x2_t acc0 = vdupq_n_f64(0.0);
      float64x2_t acc1 = vdupq_n_f64(0.0);
      float64x2_t acc2 = vdupq_n_f64(0.0);
      float64x2_t acc3 = vdupq_n_f64(0.0);
      for (size_t k = 0; k < kv; k += 2) {
        const float64x2_t xv = vld1q_f64(arow + k);
        acc0 = vfmaq_f64(acc0, xv, vld1q_f64(b0 + k));
        acc1 = vfmaq_f64(acc1, xv, vld1q_f64(b1 + k));
        acc2 = vfmaq_f64(acc2, xv, vld1q_f64(b2 + k));
        acc3 = vfmaq_f64(acc3, xv, vld1q_f64(b3 + k));
      }
      orow[j0] = HsumTail(acc0, arow, b0, kv, kk);
      orow[j0 + 1] = HsumTail(acc1, arow, b1, kv, kk);
      orow[j0 + 2] = HsumTail(acc2, arow, b2, kv, kk);
      orow[j0 + 3] = HsumTail(acc3, arow, b3, kv, kk);
    }
    for (; j0 < n; ++j0) {
      const double* __restrict brow = b.RowPtr(j0);
      float64x2_t acc = vdupq_n_f64(0.0);
      for (size_t k = 0; k < kv; k += 2) {
        acc = vfmaq_f64(acc, vld1q_f64(arow + k), vld1q_f64(brow + k));
      }
      orow[j0] = HsumTail(acc, arow, brow, kv, kk);
    }
  }
}

// ------------------------------------------------------------- GemmAT

/// a^T * b over row segments (see the scalar tier): every segment is its
/// own zero-seeded fma chain per element, finished before the next segment
/// starts and added onto the destination with one unfused add.
void DenseATAccumulate(const Matrix& a, const Matrix& b, const size_t* bounds,
                       size_t num_segments, size_t i_begin, size_t i_end,
                       Matrix* out) {
  QCFE_CHECK(a.rows() == b.rows(), "GemmAT: a.rows() must equal b.rows()");
  QCFE_CHECK(out != &a && out != &b, "GemmAT: out must not alias an input");
  QCFE_CHECK(out->rows() == a.cols() && out->cols() == b.cols(),
             "GemmATAccumulate: acc must be pre-shaped to a.cols x b.cols");
  QCFE_CHECK(i_begin <= i_end && i_end <= a.cols(),
             "GemmATAccumulate: output row range outside acc");
  const size_t n = b.cols();
  for (size_t i0 = i_begin; i0 < i_end; i0 += kMr) {
    const size_t mr = std::min(kMr, i_end - i0);
    size_t j0 = 0;
    for (; j0 + 4 <= n; j0 += 4) {
      for (size_t s = 0; s < num_segments; ++s) {
        float64x2_t acc0[kMr];
        float64x2_t acc1[kMr];
        for (size_t ii = 0; ii < kMr; ++ii) {
          acc0[ii] = vdupq_n_f64(0.0);
          acc1[ii] = vdupq_n_f64(0.0);
        }
        for (size_t r = bounds[s]; r < bounds[s + 1]; ++r) {
          const double* __restrict arow = a.RowPtr(r) + i0;
          const double* __restrict brow = b.RowPtr(r) + j0;
          bool any = false;
          for (size_t ii = 0; ii < mr; ++ii) any = any || arow[ii] != 0.0;
          if (!any) continue;  // fma(0, b, acc) == acc: skipping is bit-safe
          const float64x2_t bv0 = vld1q_f64(brow);
          const float64x2_t bv1 = vld1q_f64(brow + 2);
          for (size_t ii = 0; ii < mr; ++ii) {
            const double av = arow[ii];
            acc0[ii] = vfmaq_n_f64(acc0[ii], bv0, av);
            acc1[ii] = vfmaq_n_f64(acc1[ii], bv1, av);
          }
        }
        for (size_t ii = 0; ii < mr; ++ii) {
          double* dst = out->RowPtr(i0 + ii) + j0;
          // One unfused add onto the destination after the full chain.
          vst1q_f64(dst, vaddq_f64(vld1q_f64(dst), acc0[ii]));
          vst1q_f64(dst + 2, vaddq_f64(vld1q_f64(dst + 2), acc1[ii]));
        }
      }
    }
    for (; j0 < n; ++j0) {
      for (size_t ii = 0; ii < mr; ++ii) {
        double* dst = &out->RowPtr(i0 + ii)[j0];
        for (size_t s = 0; s < num_segments; ++s) {
          double acc = 0.0;
          for (size_t r = bounds[s]; r < bounds[s + 1]; ++r) {
            acc = std::fma(a.At(r, i0 + ii), b.At(r, j0), acc);
          }
          *dst += acc;
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

void StreamAT(const Matrix& a, const Matrix& b, Matrix* out) {
  QCFE_CHECK(a.rows() == b.rows(), "GemmAT: a.rows() must equal b.rows()");
  QCFE_CHECK(out != &a && out != &b, "GemmAT: out must not alias an input");
  out->ResetShape(a.cols(), b.cols());
  const size_t n = b.cols();
  for (size_t r = 0; r < a.rows(); ++r) {
    const double* arow = a.RowPtr(r);
    const double* __restrict brow = b.RowPtr(r);
    for (size_t i = 0; i < a.cols(); ++i) {
      const double av = arow[i];
      if (av == 0.0) continue;
      double* __restrict orow = out->RowPtr(i);
      size_t j = 0;
      for (; j + 2 <= n; j += 2) {
        vst1q_f64(orow + j,
                  vfmaq_n_f64(vld1q_f64(orow + j), vld1q_f64(brow + j), av));
      }
      for (; j < n; ++j) orow[j] = std::fma(av, brow[j], orow[j]);
    }
  }
}

void SparseTempATAccumulate(const Matrix& a, const Matrix& b, Matrix* acc) {
  thread_local Matrix tmp;
  StreamAT(a, b, &tmp);
  acc->Add(tmp);
}

void Rank1ATAccumulate(const Matrix& a, const Matrix& b, Matrix* acc) {
  const double* arow = a.RowPtr(0);
  const double* __restrict brow = b.RowPtr(0);
  const size_t m = a.cols();
  const size_t n = b.cols();
  for (size_t i = 0; i < m; ++i) {
    const double av = arow[i];
    if (av == 0.0) continue;
    double* __restrict dst = acc->RowPtr(i);
    const float64x2_t avv = vdupq_n_f64(av);
    size_t j = 0;
    for (; j + 2 <= n; j += 2) {
      // mul then unfused add — the panel-accumulate semantics.
      const float64x2_t t = vmulq_f64(avv, vld1q_f64(brow + j));
      vst1q_f64(dst + j, vaddq_f64(vld1q_f64(dst + j), t));
    }
    for (; j < n; ++j) dst[j] += av * brow[j];
  }
}

// --------------------------------------------------------- reductions

void ColSumAccumulateImpl(const Matrix& a, const size_t* bounds,
                          size_t num_segments, Matrix* acc) {
  const size_t n = a.cols();
  double* dst = acc->RowPtr(0);
  size_t c0 = 0;
  // Vertical chains only: bit-identical to the scalar tier.
  for (; c0 + 2 <= n; c0 += 2) {
    for (size_t s = 0; s < num_segments; ++s) {
      float64x2_t sum = vdupq_n_f64(0.0);
      for (size_t r = bounds[s]; r < bounds[s + 1]; ++r) {
        sum = vaddq_f64(sum, vld1q_f64(a.RowPtr(r) + c0));
      }
      vst1q_f64(dst + c0, vaddq_f64(vld1q_f64(dst + c0), sum));
    }
  }
  for (; c0 < n; ++c0) {
    for (size_t s = 0; s < num_segments; ++s) {
      double sum = 0.0;
      for (size_t r = bounds[s]; r < bounds[s + 1]; ++r) {
        sum += a.RowPtr(r)[c0];
      }
      dst[c0] += sum;
    }
  }
}

// ---------------------------------------------------- optimizer steps

void AdamStepImpl(double* __restrict p, const double* __restrict g,
                  double* __restrict m, double* __restrict v, size_t n,
                  double lr, double beta1, double beta2, double eps,
                  double bc1, double bc2) {
  const float64x2_t b1 = vdupq_n_f64(beta1);
  const float64x2_t omb1 = vdupq_n_f64(1.0 - beta1);
  const float64x2_t b2 = vdupq_n_f64(beta2);
  const float64x2_t omb2 = vdupq_n_f64(1.0 - beta2);
  const float64x2_t vbc1 = vdupq_n_f64(bc1);
  const float64x2_t vbc2 = vdupq_n_f64(bc2);
  const float64x2_t vlr = vdupq_n_f64(lr);
  const float64x2_t veps = vdupq_n_f64(eps);
  size_t k = 0;
  for (; k + 2 <= n; k += 2) {
    const float64x2_t gv = vld1q_f64(g + k);
    const float64x2_t mv = vaddq_f64(vmulq_f64(b1, vld1q_f64(m + k)),
                                     vmulq_f64(omb1, gv));
    // Match the scalar association: ((1-beta2)*g)*g.
    const float64x2_t vv = vaddq_f64(vmulq_f64(b2, vld1q_f64(v + k)),
                                     vmulq_f64(vmulq_f64(omb2, gv), gv));
    vst1q_f64(m + k, mv);
    vst1q_f64(v + k, vv);
    const float64x2_t mhat = vdivq_f64(mv, vbc1);
    const float64x2_t vhat = vdivq_f64(vv, vbc2);
    const float64x2_t den = vaddq_f64(vsqrtq_f64(vhat), veps);
    const float64x2_t q = vdivq_f64(vmulq_f64(vlr, mhat), den);
    vst1q_f64(p + k, vsubq_f64(vld1q_f64(p + k), q));
  }
  for (; k < n; ++k) {
    double gk = g[k];
    m[k] = beta1 * m[k] + (1.0 - beta1) * gk;
    v[k] = beta2 * v[k] + (1.0 - beta2) * gk * gk;
    double mhat = m[k] / bc1;
    double vhat = v[k] / bc2;
    p[k] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

void SgdStepImpl(double* __restrict p, const double* __restrict g,
                 double* __restrict v, size_t n, double lr, double momentum) {
  const float64x2_t vmo = vdupq_n_f64(momentum);
  const float64x2_t vlr = vdupq_n_f64(lr);
  size_t k = 0;
  for (; k + 2 <= n; k += 2) {
    const float64x2_t vv = vsubq_f64(vmulq_f64(vmo, vld1q_f64(v + k)),
                                     vmulq_f64(vlr, vld1q_f64(g + k)));
    vst1q_f64(v + k, vv);
    vst1q_f64(p + k, vaddq_f64(vld1q_f64(p + k), vv));
  }
  for (; k < n; ++k) {
    v[k] = momentum * v[k] - lr * g[k];
    p[k] += v[k];
  }
}

}  // namespace

const KernelTable* NeonTable() {
  static const KernelTable table = {
      DenseNNDispatch,       // dense_nn
      SparseNN,              // sparse_nn
      DenseBT,               // bt
      DenseATOverwrite,      // at_panel
      StreamAT,              // at_stream
      DenseATAccumulate,     // at_acc_panel
      SparseTempATAccumulate,  // at_acc_sparse
      Rank1ATAccumulate,     // at_acc_rank1
      ColSumAccumulateImpl,  // colsum_acc
      AdamStepImpl,          // adam_step
      SgdStepImpl,           // sgd_step
  };
  return &table;
}

}  // namespace internal
}  // namespace kernels
}  // namespace qcfe

#else  // !__aarch64__

namespace qcfe {
namespace kernels {
namespace internal {

const KernelTable* NeonTable() { return nullptr; }

}  // namespace internal
}  // namespace kernels
}  // namespace qcfe

#endif  // __aarch64__
