#ifndef QCFE_NN_KERNELS_INTERNAL_H_
#define QCFE_NN_KERNELS_INTERNAL_H_

/// \file kernels_internal.h
/// The tier dispatch table shared between the public kernel front end
/// (kernels.cc) and the per-ISA implementation translation units
/// (kernels_scalar.cc, kernels_simd_avx2.cc). Production code includes
/// kernels.h instead; tests include this header to check every tier's
/// slots directly.
///
/// Every tier fills one KernelTable with the same set of operations; the
/// front end picks a table once per call from the process-wide active ISA
/// and a slot by the fixed dispatch rule (kernels.h "Dispatch").
/// The within-tier determinism contract (kernels.h "Determinism contract")
/// binds every implementation slot: each output element's value may depend
/// only on its own mathematical inputs and the tier — never on batch size,
/// panel position, dispatch path, or which table slot computed it.

#include <cstddef>

#include "nn/kernels.h"
#include "nn/matrix.h"

namespace qcfe {
namespace kernels {
namespace internal {

/// Epilogue selector for the NN-family kernels.
enum class Epilogue { kNone, kBias, kBiasRelu };

/// Register-panel geometry shared by every tier: a kMr x kNr output tile is
/// held in registers while the contraction dimension streams past. These
/// are structural constants (the register budget), not tuned thresholds.
constexpr size_t kMr = 4;
constexpr size_t kNr = 8;

/// One ISA tier's implementation of every kernel operation.
struct KernelTable {
  /// Register-blocked dense a*b with optional fused bias / bias+ReLU.
  /// bias may be null iff e == Epilogue::kNone.
  void (*dense_nn)(const Matrix& a, const Matrix& b, const Matrix* bias,
                   Matrix* out, Epilogue e);
  /// Sparse row-skip a*b (product only; callers add bias/ReLU passes).
  void (*sparse_nn)(const Matrix& a, const Matrix& b, Matrix* out);
  /// a * b^T.
  void (*bt)(const Matrix& a, const Matrix& b, Matrix* out);
  /// a^T * b, register-panel form (overwrite).
  void (*at_panel)(const Matrix& a, const Matrix& b, Matrix* out);
  /// a^T * b, streaming zero-skip form (overwrite; wins below kMr rows).
  void (*at_stream)(const Matrix& a, const Matrix& b, Matrix* out);
  /// acc += a^T * b over row segments, for acc rows [i_begin, i_end) only:
  /// the rows [bounds[s], bounds[s+1]) of segment s = 0 .. num_segments-1
  /// each form one zero-seeded register-panel contraction, added onto acc
  /// with one unfused add, in segment order.
  void (*at_acc_panel)(const Matrix& a, const Matrix& b, const size_t* bounds,
                       size_t num_segments, size_t i_begin, size_t i_end,
                       Matrix* acc);
  /// acc (1 x n) += column sums of a over row segments, with the same
  /// per-segment chain and in-order add as at_acc_panel.
  void (*colsum_acc)(const Matrix& a, const size_t* bounds,
                     size_t num_segments, Matrix* acc);
  /// One Adam update over flat arrays of length n (bc1/bc2 are the
  /// precomputed bias corrections 1-beta^t). Bit-identical across tiers:
  /// every lane operation (mul/add/div/sqrt) is a single IEEE rounding.
  void (*adam_step)(double* p, const double* g, double* m, double* v,
                    size_t n, double lr, double beta1, double beta2,
                    double eps, double bc1, double bc2);
  /// One SGD+momentum update over flat arrays of length n. Bit-identical
  /// across tiers for the same reason.
  void (*sgd_step)(double* p, const double* g, double* v, size_t n,
                   double lr, double momentum);
};

/// The bit-exact scalar tier (always available; the reference loops'
/// arithmetic).
const KernelTable& ScalarTable();

/// The AVX2+FMA tier; null when the build does not compile it in
/// (QCFE_ENABLE_AVX2=OFF or a non-x86 target).
const KernelTable* Avx2Table();

/// The table of an available tier.
const KernelTable& TableFor(KernelIsa isa);

/// Separate bias / ReLU passes for paths that accumulate in memory (the
/// row-skip product and the reference loops): identical per-element
/// arithmetic to the fused epilogues in every tier (one IEEE add / one
/// compare-select per element).
void BiasPass(const Matrix& bias, Matrix* out);
void ReluPass(Matrix* out);

}  // namespace internal
}  // namespace kernels
}  // namespace qcfe

#endif  // QCFE_NN_KERNELS_INTERNAL_H_
