#ifndef QCFE_NN_KERNELS_H_
#define QCFE_NN_KERNELS_H_

/// \file kernels.h
/// The dedicated NN kernel layer: every forward/backward matrix product in
/// the training and serving hot paths routes through these entry points.
///
/// Two axes select an implementation:
///
///  * **KernelMode** (dispatch path): register-blocked dense panels vs the
///    historical sparse row-skip loops, chosen density-adaptively under
///    kAuto; kReference replays the exact pre-kernel-layer code paths.
///  * **KernelIsa** (instruction tier): the bit-exact scalar tier, the
///    AVX2+FMA tier, or the AArch64 NEON tier, selected once per process by
///    runtime CPU detection (overridable via QCFE_KERNEL_ISA).
///
/// Determinism contract. Within one ISA tier, every kernel accumulates each
/// output element's contraction terms in ascending-k order into a single
/// accumulator seeded with +0.0 (a fused-multiply-add chain on the SIMD
/// tiers, a plain multiply-add chain on the scalar tier). Skipping an
/// exactly-zero product term cannot change the accumulator bits, so the
/// dense path (which includes zero terms) and the sparse path (which skips
/// them) are bit-identical for finite inputs, at any shape, batch size and
/// dispatch decision — *within a tier*. The `*Accumulate` forms compute the
/// full contraction first and add it to the destination with one unfused
/// store. Across tiers, FMA's single rounding makes contraction results
/// differ from the scalar tier by a bounded relative error (gated at
/// kSimdRelTolerance by the parity machinery in tests/kernels_test.cc and
/// `bench_micro --smoke`); ColSumAccumulate, AdamStep and SgdStep use no
/// FMA and no reductions, so they are bit-identical across every tier.
///
/// Segmented accumulates. GemmATAccumulateSegments/ColSumAccumulateSegments
/// cut the shared row dimension at caller-given bounds and, per output
/// element, build each segment's terms as one zero-seeded chain in the
/// tier's own arithmetic (FMA on AVX2/NEON, mul+add on scalar), then add
/// the chains onto the destination with unfused adds in segment order.
/// That equals, bit for bit, one zeroed gradient sink per chunk merged in
/// chunk order: each sink takes one accumulate, and +0 + chain == chain
/// because a chain seeded at +0 can never round to -0; the merge then adds
/// the sinks into a zeroed gradient in chunk order. So a batch whose rows
/// are segmented at its chunk boundaries gets the sinks' bits without any
/// sink (MSCN trains this way). Segments must follow the chunk partition: a
/// caller that splits work into shards (one packed forward/backward per
/// worker) must cut shards at chunk boundaries and feed the shards to the
/// accumulate in order, because a chain that spanned a chunk boundary, or
/// two chunks summed in a different order, would round differently. The
/// plain GemmATAccumulate/ColSumAccumulate are the one-segment call of the
/// same tier slot; no tier has a second accumulate kernel.
///
/// Autotuning. The dispatch thresholds (dense-vs-streaming row crossover,
/// sparse-vs-dense zero-fraction crossover) are measured once per process
/// by a lazy startup micro-probe over real layer shapes (see Autotune()),
/// falling back to compiled defaults when QCFE_KERNEL_AUTOTUNE=0. Because
/// dispatch is bit-safe within a tier, a different tuning never changes
/// results — only speed.
///
/// KernelMode::kReference exists for parity tests and before/after
/// benchmarking: it replays the exact pre-kernel-layer code paths
/// (including their temporary allocations), so "reference vs auto"
/// measures this layer's end-to-end win while tests assert the results
/// stay bit-equal (under the scalar tier) or within tolerance (SIMD).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nn/matrix.h"

namespace qcfe {
namespace kernels {

/// Process-wide dispatch override. kAuto is the production setting;
/// kReference replays the historical unblocked loops (and temporary
/// allocations) for parity tests and before/after benchmarks; kDense and
/// kSparse pin one dispatch path so tests can cover both on any input.
enum class KernelMode {
  kAuto,
  kReference,
  kDense,
  kSparse,
};

/// Sets/reads the process-wide kernel mode (atomic; safe to flip between
/// parallel regions, not during one).
void SetKernelMode(KernelMode mode);
KernelMode GetKernelMode();

/// RAII mode pin for tests and benchmarks.
class ScopedKernelMode {
 public:
  explicit ScopedKernelMode(KernelMode mode) : saved_(GetKernelMode()) {
    SetKernelMode(mode);
  }
  ~ScopedKernelMode() { SetKernelMode(saved_); }
  ScopedKernelMode(const ScopedKernelMode&) = delete;
  ScopedKernelMode& operator=(const ScopedKernelMode&) = delete;

 private:
  KernelMode saved_;
};

// ------------------------------------------------------------- ISA tiers

/// Instruction-set tier backing the kernel implementations. kScalar is the
/// bit-exact reference arithmetic, always available; the SIMD tiers are
/// available when both compiled in and supported by the running CPU.
enum class KernelIsa {
  kScalar,
  kAvx2,
  kNeon,
};

/// True when `isa` is both compiled into this binary and supported by the
/// running CPU (runtime detection: CPUID on x86, baseline on AArch64).
bool KernelIsaAvailable(KernelIsa isa);

/// The best available tier on this machine (kAvx2 > kNeon > kScalar).
KernelIsa DetectKernelIsa();

/// Sets/reads the process-wide kernel ISA tier (atomic; safe to flip
/// between parallel regions, not during one). Setting an unavailable tier
/// clamps to kScalar. The initial value honours QCFE_KERNEL_ISA
/// (scalar|avx2|neon|auto; unavailable pins clamp, auto = detection).
void SetKernelIsa(KernelIsa isa);
KernelIsa GetKernelIsa();

/// Lower-case tier name ("scalar", "avx2", "neon") for logs and JSON.
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

// ------------------------------------------------------------ autotuning

/// The dispatch thresholds one ISA tier runs with. Published into
/// BENCH_parallel.json by bench_micro so tuned values are visible.
struct KernelTuning {
  KernelIsa isa = KernelIsa::kScalar;
  /// Minimum a.rows() before the kAuto NN dispatch considers the blocked
  /// dense kernel; below it the streaming row-skip loop wins. SIZE_MAX
  /// means the probe never saw the panel win (always stream by row count).
  size_t dense_min_rows = 0;
  /// Zero-fraction threshold at/above which kAuto dispatch prefers the
  /// sparse row-skip path. 0.0 = always sparse; > 1.0 = never sparse.
  double sparse_dispatch_threshold = 0.0;
  /// Probe-measured dense GemmNN speedup of this tier over the scalar tier
  /// on a real layer shape (scalar_ns / tier_ns); 1.0 for the scalar tier.
  double simd_gemm_speedup = 1.0;
  /// True when the thresholds came from the startup micro-probe; false for
  /// the compiled defaults (QCFE_KERNEL_AUTOTUNE=0, unavailable tier, or
  /// malformed probe data).
  bool autotuned = false;
};

/// Raw micro-probe timings feeding SelectTuning(). Exposed (and
/// injectable) so tests can assert threshold selection deterministically
/// without depending on wall-clock behaviour.
struct ProbeMeasurements {
  /// Row-count grid for the dense-vs-streaming NN crossover (ascending),
  /// with per-point best-of timings for each path on fully dense input.
  std::vector<size_t> rows;
  std::vector<double> sparse_ns;
  std::vector<double> dense_ns;
  /// Zero-fraction grid for the sparse-vs-dense crossover (ascending),
  /// with per-point timings at a fixed plan-feature-like shape.
  std::vector<double> zero_fractions;
  std::vector<double> sparse_zf_ns;
  std::vector<double> dense_zf_ns;
  /// Dense GemmNN on a real layer shape: scalar tier vs the probed tier.
  double scalar_gemm_ns = 0.0;
  double simd_gemm_ns = 0.0;
};

/// Runs the startup micro-probe for `isa` (which must be available):
/// times the tier's kernels directly over real layer shapes with
/// deterministic inputs. Timing noise only moves thresholds — dispatch is
/// bit-safe within a tier, so results never change.
ProbeMeasurements MeasureProbes(KernelIsa isa);

/// Pure threshold selection from probe data — deterministic and monotone
/// in the timings (unit-tested with injected measurements):
///  * dense_min_rows = the smallest grid row count from which the dense
///    panel wins for the entire remaining suffix (SIZE_MAX when none);
///  * sparse_dispatch_threshold = the midpoint between the last
///    dense-winning and first suffix-wide sparse-winning zero fraction
///    (0.0 when sparse wins everywhere, > 1.0 when nowhere);
///  * simd_gemm_speedup = scalar_gemm_ns / simd_gemm_ns.
/// Malformed measurements (empty/mismatched grids, non-positive timings)
/// yield the compiled defaults with autotuned=false.
KernelTuning SelectTuning(KernelIsa isa, const ProbeMeasurements& probes);

/// The active tier's tuning. Lazily runs the micro-probe for every
/// available tier on first use (honouring QCFE_KERNEL_AUTOTUNE=0, which
/// pins the compiled defaults); the result is fixed for the process.
const KernelTuning& Tuning();

/// Forces the lazy micro-probe to run now (e.g. before entering a timed
/// region). Idempotent.
void Autotune();

/// Fraction of exactly-zero entries in a deterministic strided sample of
/// `m`'s logical elements: logical index i = row * cols + col for i = 0,
/// stride, 2 * stride, ... with stride = max(1, size / 256), so at most a
/// few hundred probes and never the row padding. Exposed for tests; the
/// dispatch heuristic.
double ZeroFraction(const Matrix& m);

/// Compiled-default zero-fraction threshold above which dispatch prefers
/// the sparse row-skip path (used verbatim when autotuning is disabled).
/// The row-skip's saving scales linearly with the zero fraction while the
/// blocked panel's register-reuse win on fully dense inputs is bounded, so
/// the crossover sits well below half: plan-feature and one-hot set inputs
/// (>=50% zeros) go sparse, standardized activations (exactly 0% zeros) go
/// dense, and mildly padded inputs like wave-batched unit rows (~25%
/// zeros) still favour the skip.
constexpr double kSparseDispatchThreshold = 0.2;

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

/// acc += a^T * b with each output element's contraction summed in a
/// register before the single add: the dW += X^T * dY backward product,
/// matching `acc->Add(MatMulAT(a, b))` without the temporary.
void GemmATAccumulate(const Matrix& a, const Matrix& b, Matrix* acc);

/// acc (1 x n) += column sums of a: the db += colsum(dY) backward product,
/// bit-identical to `acc->Add(a.ColSum())` without the temporary (in every
/// tier — column sums are vertical and never reduce across lanes).
void ColSumAccumulate(const Matrix& a, Matrix* acc);

/// Segmented GemmATAccumulate: for s = 0, 1, ..., the rows [bounds[s],
/// bounds[s + 1]) of a and b contribute one zero-seeded contraction that is
/// added onto acc before the next segment's (see "Segmented accumulates"
/// above). Equals one GemmATAccumulate per segment into a zeroed temporary
/// followed by in-order Adds, bit for bit, in every tier. `bounds` must
/// ascend and end at or before a.rows(); rows outside it are ignored.
/// Only acc rows [row_begin, min(row_end, a.cols())) are updated, so one
/// accumulate can be split across tasks by output rows without changing
/// any element. Always runs the tier's register panel (kReference replays
/// the temporaries).
void GemmATAccumulateSegments(const Matrix& a, const Matrix& b,
                              const std::vector<size_t>& bounds, Matrix* acc,
                              size_t row_begin = 0,
                              size_t row_end = SIZE_MAX);

/// Segmented ColSumAccumulate, with the same segment semantics.
void ColSumAccumulateSegments(const Matrix& a,
                              const std::vector<size_t>& bounds, Matrix* acc);

// ------------------------------------------------------------ epilogues

/// out = relu(in), elementwise; `out` may alias `in`.
void ReluForward(const Matrix& in, Matrix* out);

/// grad_in = grad_out with entries zeroed where pre_activation <= 0: the
/// fused ReLU-mask backward. `grad_in` may alias `grad_out`.
void ReluMaskBackward(const Matrix& grad_out, const Matrix& pre_activation,
                      Matrix* grad_in);

// ------------------------------------------------------- optimizer steps

/// One Adam update of `p` (with first/second-moment state `m`/`v`) from
/// gradient `g`; bc1/bc2 are the precomputed bias corrections 1 - beta^t.
/// All four matrices must share one shape. Vectorized on the SIMD tiers
/// with single-rounding lane ops only, so the update is bit-identical
/// across every tier.
void AdamStep(Matrix* p, const Matrix& g, Matrix* m, Matrix* v, double lr,
              double beta1, double beta2, double eps, double bc1, double bc2);

/// One SGD+momentum update of `p` (velocity `v`) from gradient `g`.
/// Bit-identical across tiers for the same reason.
void SgdStep(Matrix* p, const Matrix& g, Matrix* v, double lr,
             double momentum);

// ------------------------------------------------------------------ simd
// Direct entry points into the active ISA tier's dense register-panel
// kernels: no KernelMode consultation, no density dispatch. Benchmarks and
// the per-tier parity gates use these to measure/validate one tier's
// vectorized path in isolation; production code should call the dispatched
// forms above.
namespace simd {
void GemmNN(const Matrix& a, const Matrix& b, Matrix* out);
void GemmNNBias(const Matrix& a, const Matrix& b, const Matrix& bias,
                Matrix* out);
void GemmNNBiasRelu(const Matrix& a, const Matrix& b, const Matrix& bias,
                    Matrix* out);
void GemmBT(const Matrix& a, const Matrix& b, Matrix* out);
void GemmAT(const Matrix& a, const Matrix& b, Matrix* out);
void GemmATAccumulate(const Matrix& a, const Matrix& b, Matrix* acc);
void ColSumAccumulate(const Matrix& a, Matrix* acc);
}  // namespace simd

// ------------------------------------------------------------- reference
// The historical unblocked loops, self-contained (no dispatch, scalar
// arithmetic). Parity tests compare every blocked/sparse kernel against
// these bit for bit under the scalar tier, and within kSimdRelTolerance
// under the SIMD tiers.
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
