#include "nn/kernels.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "nn/kernels_internal.h"
#include "util/check.h"

namespace qcfe {
namespace kernels {

namespace {

using internal::Epilogue;
using internal::KernelTable;

/// Initial ISA honours QCFE_KERNEL_ISA (scalar|avx2|auto), clamping an
/// unavailable pin to the scalar tier; unset, auto or any other value takes
/// the best detected tier.
int InitialIsa() {
  const char* env = std::getenv("QCFE_KERNEL_ISA");
  KernelIsa isa = DetectKernelIsa();
  if (env != nullptr && std::strcmp(env, "scalar") == 0) {
    isa = KernelIsa::kScalar;
  } else if (env != nullptr && std::strcmp(env, "avx2") == 0) {
    isa = KernelIsa::kAvx2;
  }
  if (!KernelIsaAvailable(isa)) isa = KernelIsa::kScalar;
  return static_cast<int>(isa);
}

std::atomic<int> g_isa{InitialIsa()};

const KernelTable& ActiveTable() { return internal::TableFor(GetKernelIsa()); }

/// The dispatch rule for the NN family (see "Dispatch" in kernels.h).
bool RowSkipWins(const Matrix& a) {
  return ZeroFraction(a) >= kRowSkipZeroFraction;
}

/// Segment bounds must be a non-empty ascending run of row offsets inside
/// the operand (a run of one offset is zero segments).
void CheckSegmentBounds(const std::vector<size_t>& bounds, size_t rows) {
  QCFE_CHECK(!bounds.empty() && bounds.back() <= rows,
             "segment bounds must be non-empty and end inside the operand");
  for (size_t s = 0; s + 1 < bounds.size(); ++s) {
    QCFE_CHECK(bounds[s] <= bounds[s + 1], "segment bounds must ascend");
  }
}

}  // namespace

namespace internal {

const KernelTable& TableFor(KernelIsa isa) {
  if (isa == KernelIsa::kAvx2) {
    const KernelTable* t = Avx2Table();
    QCFE_DCHECK(t != nullptr, "AVX2 tier selected but not compiled in");
    return *t;
  }
  return ScalarTable();
}

}  // namespace internal

bool KernelIsaAvailable(KernelIsa isa) {
  if (isa == KernelIsa::kScalar) return true;
  // AVX2 needs the tier compiled in and a CPU that runs AVX2 and FMA.
#if defined(__x86_64__) || defined(__i386__)
  return internal::Avx2Table() != nullptr && __builtin_cpu_supports("avx2") &&
         __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

KernelIsa DetectKernelIsa() {
  return KernelIsaAvailable(KernelIsa::kAvx2) ? KernelIsa::kAvx2
                                              : KernelIsa::kScalar;
}

void SetKernelIsa(KernelIsa isa) {
  if (!KernelIsaAvailable(isa)) isa = KernelIsa::kScalar;
  g_isa.store(static_cast<int>(isa), std::memory_order_relaxed);
}

KernelIsa GetKernelIsa() {
  return static_cast<KernelIsa>(g_isa.load(std::memory_order_relaxed));
}

const char* KernelIsaName(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kScalar:
      return "scalar";
    case KernelIsa::kAvx2:
      return "avx2";
  }
  return "unknown";
}

double ZeroFraction(const Matrix& m) {
  const size_t cols = m.cols();
  const size_t n = m.rows() * cols;
  if (n == 0) return 0.0;
  // A small strided sample keeps the dispatch decision far cheaper than
  // the product it steers while staying deterministic for a given matrix.
  // Sampling walks logical indices (row, col), never the row padding —
  // the always-zero pad columns would otherwise inflate the fraction.
  constexpr size_t kMaxProbes = 256;
  const size_t stride = n > kMaxProbes ? n / kMaxProbes : 1;
  // The probe walk carries (row, col) of logical index i = row * cols +
  // col along instead of dividing per probe: each step advances col by
  // stride % cols and row by stride / cols, carrying one row on overflow.
  const size_t row_step = stride / cols;
  const size_t col_step = stride % cols;
  size_t zeros = 0;
  size_t probes = 0;
  size_t row = 0;
  size_t col = 0;
  for (size_t i = 0; i < n; i += stride) {
    zeros += m.RowPtr(row)[col] == 0.0 ? 1 : 0;
    ++probes;
    row += row_step;
    col += col_step;
    if (col >= cols) {
      col -= cols;
      ++row;
    }
  }
  return static_cast<double>(zeros) / static_cast<double>(probes);
}

// ------------------------------------------------------------- products

void GemmNN(const Matrix& a, const Matrix& b, Matrix* out) {
  const KernelTable& t = ActiveTable();
  if (RowSkipWins(a)) {
    t.sparse_nn(a, b, out);
    return;
  }
  t.dense_nn(a, b, nullptr, out, Epilogue::kNone);
}

void GemmNNBias(const Matrix& a, const Matrix& b, const Matrix& bias,
                Matrix* out) {
  const KernelTable& t = ActiveTable();
  if (RowSkipWins(a)) {
    t.sparse_nn(a, b, out);
    internal::BiasPass(bias, out);
    return;
  }
  t.dense_nn(a, b, &bias, out, Epilogue::kBias);
}

void GemmNNBiasRelu(const Matrix& a, const Matrix& b, const Matrix& bias,
                    Matrix* out) {
  const KernelTable& t = ActiveTable();
  if (RowSkipWins(a)) {
    t.sparse_nn(a, b, out);
    internal::BiasPass(bias, out);
    internal::ReluPass(out);
    return;
  }
  t.dense_nn(a, b, &bias, out, Epilogue::kBiasRelu);
}

void GemmBT(const Matrix& a, const Matrix& b, Matrix* out) {
  ActiveTable().bt(a, b, out);
}

void GemmAT(const Matrix& a, const Matrix& b, Matrix* out) {
  const KernelTable& t = ActiveTable();
  if (a.rows() < internal::kMr) {
    t.at_stream(a, b, out);
    return;
  }
  t.at_panel(a, b, out);
}

void GemmATAccumulateSegments(const Matrix& a, const Matrix& b,
                              const std::vector<size_t>& bounds, Matrix* acc,
                              size_t row_begin, size_t row_end) {
  QCFE_CHECK(a.rows() == b.rows(),
             "GemmATAccumulateSegments: row-count mismatch");
  QCFE_CHECK(acc->rows() == a.cols() && acc->cols() == b.cols(),
             "GemmATAccumulateSegments: acc must be pre-shaped to a.cols x "
             "b.cols");
  CheckSegmentBounds(bounds, a.rows());
  row_end = std::min(row_end, a.cols());
  QCFE_CHECK(row_begin <= row_end,
             "GemmATAccumulateSegments: output row range must ascend");
  ActiveTable().at_acc_panel(a, b, bounds.data(), bounds.size() - 1,
                             row_begin, row_end, acc);
}

void ColSumAccumulateSegments(const Matrix& a,
                              const std::vector<size_t>& bounds, Matrix* acc) {
  QCFE_CHECK(acc->rows() == 1 && acc->cols() == a.cols(),
             "ColSumAccumulateSegments: acc must be a pre-shaped 1 x a.cols "
             "row");
  CheckSegmentBounds(bounds, a.rows());
  ActiveTable().colsum_acc(a, bounds.data(), bounds.size() - 1, acc);
}

// ------------------------------------------------------------ epilogues

void ReluForward(const Matrix& in, Matrix* out) {
  if (out != &in) out->ResetShapeUninitialized(in.rows(), in.cols());
  // Flat over the physical buffer: relu(0) == 0 preserves the pad zeros.
  const double* src = in.data().data();
  double* dst = out->data().data();
  for (size_t i = 0; i < in.size(); ++i) dst[i] = src[i] > 0.0 ? src[i] : 0.0;
}

void ReluMaskBackward(const Matrix& grad_out, const Matrix& pre_activation,
                      Matrix* grad_in) {
  QCFE_CHECK(grad_out.rows() == pre_activation.rows() &&
                 grad_out.cols() == pre_activation.cols(),
             "ReluMaskBackward: gradient and pre-activation shapes differ");
  if (grad_in != &grad_out) {
    grad_in->ResetShapeUninitialized(grad_out.rows(), grad_out.cols());
  }
  // Flat: pad pre-activations are 0 (<= 0), so pad gradients stay 0.
  const double* src = grad_out.data().data();
  const double* pre = pre_activation.data().data();
  double* dst = grad_in->data().data();
  for (size_t i = 0; i < grad_out.size(); ++i) {
    dst[i] = pre[i] <= 0.0 ? 0.0 : src[i];
  }
}

// ------------------------------------------------------- optimizer steps

void AdamStep(Matrix* p, const Matrix& g, Matrix* m, Matrix* v, double lr,
              double beta1, double beta2, double eps, double bc1, double bc2) {
  QCFE_CHECK(p->rows() == g.rows() && p->cols() == g.cols() &&
                 m->rows() == g.rows() && m->cols() == g.cols() &&
                 v->rows() == g.rows() && v->cols() == g.cols(),
             "AdamStep: parameter/gradient/state shapes must match");
  // Flat over the physical buffer: every operand's pad columns are zero
  // and an Adam update of all-zero state/gradient is exactly zero, so the
  // layout invariant survives.
  ActiveTable().adam_step(p->data().data(), g.data().data(), m->data().data(),
                          v->data().data(), p->size(), lr, beta1, beta2, eps,
                          bc1, bc2);
}

void SgdStep(Matrix* p, const Matrix& g, Matrix* v, double lr,
             double momentum) {
  QCFE_CHECK(p->rows() == g.rows() && p->cols() == g.cols() &&
                 v->rows() == g.rows() && v->cols() == g.cols(),
             "SgdStep: parameter/gradient/velocity shapes must match");
  ActiveTable().sgd_step(p->data().data(), g.data().data(), v->data().data(),
                         p->size(), lr, momentum);
}

}  // namespace kernels
}  // namespace qcfe
