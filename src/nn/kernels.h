#ifndef QCFE_NN_KERNELS_H_
#define QCFE_NN_KERNELS_H_

/// \file kernels.h
/// The dedicated NN kernel layer: every forward/backward matrix product in
/// the training and serving hot paths routes through these entry points.
///
/// One axis selects an implementation: the **KernelIsa** (instruction
/// tier), either the bit-exact scalar tier or the AVX2+FMA tier, chosen
/// once per process by runtime CPU detection and pinnable with
/// QCFE_KERNEL_ISA. Other targets (AArch64 included) run the scalar tier.
///
/// Dispatch. Within a tier, each entry point picks a tier slot by one fixed
/// rule, the same on every tier:
///
///  * The NN family (GemmNN, GemmNNBias, GemmNNBiasRelu) takes the row-skip
///    loop when ZeroFraction(a) >= kRowSkipZeroFraction (0.8), and the
///    register panel otherwise, at any row count.
///  * GemmAT takes the register panel from kMr rows on and the streaming
///    loop below that (the panel only pays once it amortises operand loads
///    across a full register block).
///  * GemmBT, the segmented accumulates and the optimizer step have one
///    slot each. The weight-gradient accumulate always runs the register
///    panel, zero inputs included: both estimators hand it a whole batch's
///    rows per network at once.
///
/// The 0.8 crossover is the AVX2 tier's measured one, and the same in every
/// process on a 4-vCPU AVX2 host (best of three, one thread): at the
/// 64 x 66 plan-feature shape the row-skip loop took 24.4 us against the
/// panel's 16.0 us at 0.7 zeros, and 9.8 us against 16.0 us at 0.9 zeros;
/// fully dense 1- to 64-row hidden products ran 1.3-3.2x faster on the
/// panel. Measuring it at startup cost 78-94 ms per process, so it is a
/// constant. The scalar tier's two loops time within noise of each other
/// (repeated measurements put its crossover anywhere from 0.25 to 0.6), so
/// it shares the rule rather than having one of its own.
///
/// Determinism contract. Within one ISA tier, every kernel accumulates each
/// output element's contraction terms in ascending-k order into a single
/// accumulator seeded with +0.0 (a fused-multiply-add chain on the AVX2
/// tier, a plain multiply-add chain on the scalar tier). Skipping an
/// exactly-zero product term cannot change the accumulator bits, so the
/// register panel (which includes zero terms) and the row-skip loop (which
/// skips them) are bit-identical for finite inputs, at any shape, batch
/// size and dispatch decision, within a tier. The dispatch rule therefore
/// only ever changes speed. The `*Accumulate` forms compute the full
/// contraction first and add it to the destination with one unfused store.
/// Across tiers, FMA's single rounding makes contraction results differ
/// from the scalar tier by a bounded relative error (gated at
/// kSimdRelTolerance by tests/kernels_test.cc and `bench_micro --smoke`);
/// ColSumAccumulateSegments and AdamStep use no FMA and no cross-lane
/// reductions, so they are bit-identical across tiers.
///
/// Segmented accumulates. GemmATAccumulateSegments/ColSumAccumulateSegments
/// cut the shared row dimension at caller-given bounds and, per output
/// element, build each segment's terms as one zero-seeded chain in the
/// tier's own arithmetic (FMA on AVX2, mul+add on scalar), then add the
/// chains onto the destination with unfused adds in segment order.
/// Training makes each chunk of an optimizer batch one segment, so a
/// gradient is 0 + chain(chunk 0) + chain(chunk 1) + ... at any thread
/// count. A chain seeded at +0 never rounds to -0, so neither does a
/// gradient built this way, and an empty segment (a network that no row of
/// a chunk reached) adds +0 and changes nothing. Segments must follow the
/// chunk partition: a caller that splits work into shards (MSCN: one packed
/// forward/backward per worker) must cut shards at chunk boundaries and
/// feed them to the accumulate in order, and a caller that packs rows
/// (QPPNet, per neural unit) must keep each chunk's rows contiguous and in
/// the chunk's own order, because a chain that spanned a chunk boundary,
/// or rows summed in another order, would round differently. `{0, rows}` is
/// the plain one-segment accumulate; no tier has a second accumulate
/// kernel.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nn/matrix.h"

namespace qcfe {
namespace kernels {

// ------------------------------------------------------------- ISA tiers

/// Instruction-set tier backing the kernel implementations. kScalar is the
/// bit-exact reference arithmetic, always available; kAvx2 is available
/// when both compiled in and supported by the running CPU.
enum class KernelIsa {
  kScalar,
  kAvx2,
};

/// True when `isa` is both compiled into this binary and supported by the
/// running CPU (CPUID detection).
bool KernelIsaAvailable(KernelIsa isa);

/// The best available tier on this machine (kAvx2 > kScalar).
KernelIsa DetectKernelIsa();

/// Sets/reads the process-wide kernel ISA tier (atomic; safe to flip
/// between parallel regions, not during one). Setting an unavailable tier
/// clamps to kScalar. The initial value honours QCFE_KERNEL_ISA
/// (scalar|avx2|auto): an unavailable pin clamps to kScalar, and auto or
/// any other value takes the detected tier.
void SetKernelIsa(KernelIsa isa);
KernelIsa GetKernelIsa();

/// Lower-case tier name ("scalar", "avx2") for logs and JSON.
const char* KernelIsaName(KernelIsa isa);

/// RAII ISA pin for tests and benchmarks.
class ScopedKernelIsa {
 public:
  explicit ScopedKernelIsa(KernelIsa isa) : saved_(GetKernelIsa()) {
    SetKernelIsa(isa);
  }
  ~ScopedKernelIsa() { SetKernelIsa(saved_); }
  ScopedKernelIsa(const ScopedKernelIsa&) = delete;
  ScopedKernelIsa& operator=(const ScopedKernelIsa&) = delete;

 private:
  KernelIsa saved_;
};

/// Documented cross-tier tolerance: SIMD contraction kernels (FMA chains,
/// and GemmBT's lane-split reduction) may differ from the scalar tier by
/// this relative error per element. The parity gates in
/// tests/kernels_test.cc and `bench_micro --smoke` enforce it.
constexpr double kSimdRelTolerance = 1e-12;

/// Fraction of exactly-zero entries in a deterministic strided sample of
/// `m`'s logical elements: logical index i = row * cols + col for i = 0,
/// stride, 2 * stride, ... with stride = max(1, size / 256), so at most a
/// few hundred probes and never the row padding. The dispatch rule's
/// input; exposed for tests.
double ZeroFraction(const Matrix& m);

/// Zero fraction of the left operand at and above which the NN family takes
/// the row-skip loop (see "Dispatch").
constexpr double kRowSkipZeroFraction = 0.8;

// ------------------------------------------------------------- products
// All Into-forms reshape `out` reusing its allocation; `out` must not alias
// an input. Accumulate-forms require `acc` pre-shaped to the result shape.

/// out = a * b. (m x k) * (k x n) -> (m x n).
void GemmNN(const Matrix& a, const Matrix& b, Matrix* out);

/// out = a * b + bias (1 x n row broadcast): the fused linear-layer
/// forward epilogue.
void GemmNNBias(const Matrix& a, const Matrix& b, const Matrix& bias,
                Matrix* out);

/// out = relu(a * b + bias): fused linear+ReLU forward for serving, where
/// the pre-activation never needs to be materialised.
void GemmNNBiasRelu(const Matrix& a, const Matrix& b, const Matrix& bias,
                    Matrix* out);

/// out = a * b^T. (m x k) * (n x k) -> (m x n). The dX = dY * W^T backward
/// product, without materialising the transpose.
void GemmBT(const Matrix& a, const Matrix& b, Matrix* out);

/// out = a^T * b. (k x m) * (k x n) -> (m x n).
void GemmAT(const Matrix& a, const Matrix& b, Matrix* out);

/// acc += a^T * b over row segments (the dW += X^T * dY backward product):
/// for s = 0, 1, ..., the rows [bounds[s], bounds[s + 1]) of a and b
/// contribute one zero-seeded contraction, summed in registers and then
/// added onto acc with one unfused add before the next segment's (see
/// "Segmented accumulates" above). Equals one one-segment call per segment
/// into a zeroed temporary followed by in-order Adds, bit for bit, in every
/// tier; on the scalar tier each segment's sum is the reference
/// GemmATAccumulate's. `bounds` must ascend and end at or before a.rows();
/// rows outside it are ignored.
/// Only acc rows [row_begin, min(row_end, a.cols())) are updated, so one
/// accumulate can be split across tasks by output rows without changing
/// any element. Always runs the tier's register panel.
void GemmATAccumulateSegments(const Matrix& a, const Matrix& b,
                              const std::vector<size_t>& bounds, Matrix* acc,
                              size_t row_begin = 0,
                              size_t row_end = SIZE_MAX);

/// acc (1 x n) += column sums of a over row segments (the db += colsum(dY)
/// backward product), with the same segment semantics. Bit-identical in
/// every tier: column sums are vertical and never reduce across lanes.
void ColSumAccumulateSegments(const Matrix& a,
                              const std::vector<size_t>& bounds, Matrix* acc);

// ------------------------------------------------------------ epilogues

/// out = relu(in), elementwise; `out` may alias `in`.
void ReluForward(const Matrix& in, Matrix* out);

/// grad_in = grad_out with entries zeroed where pre_activation <= 0: the
/// fused ReLU-mask backward. `grad_in` may alias `grad_out`.
void ReluMaskBackward(const Matrix& grad_out, const Matrix& pre_activation,
                      Matrix* grad_in);

// -------------------------------------------------------- optimizer step

/// One Adam update of `p` (with first/second-moment state `m`/`v`) from
/// gradient `g`; bc1/bc2 are the precomputed bias corrections 1 - beta^t.
/// All four matrices must share one shape. Vectorized on the SIMD tiers
/// with single-rounding lane ops only, so the update is bit-identical
/// across every tier.
void AdamStep(Matrix* p, const Matrix& g, Matrix* m, Matrix* v, double lr,
              double beta1, double beta2, double eps, double bc1, double bc2);

// ------------------------------------------------------------- reference
// The historical unblocked loops, self-contained (no dispatch, scalar
// arithmetic): the per-kernel test oracle. Parity tests compare every tier
// slot against these bit for bit on the scalar tier, and within
// kSimdRelTolerance on the AVX2 tier.
namespace reference {
void GemmNN(const Matrix& a, const Matrix& b, Matrix* out);
void GemmNNBias(const Matrix& a, const Matrix& b, const Matrix& bias,
                Matrix* out);
void GemmNNBiasRelu(const Matrix& a, const Matrix& b, const Matrix& bias,
                    Matrix* out);
void GemmBT(const Matrix& a, const Matrix& b, Matrix* out);
void GemmAT(const Matrix& a, const Matrix& b, Matrix* out);
void GemmATAccumulate(const Matrix& a, const Matrix& b, Matrix* acc);
void ColSumAccumulate(const Matrix& a, Matrix* acc);
}  // namespace reference

}  // namespace kernels
}  // namespace qcfe

#endif  // QCFE_NN_KERNELS_H_
