/// Parity suite for the NN kernel layer (nn/kernels.h).
///
/// Under the scalar ISA tier, every blocked / sparse / fused kernel must
/// produce exactly the bits of the historical reference loops, across edge
/// shapes (0-row, 1-row, odd and prime dims, all-zero rows, fully dense)
/// and at every dispatch pin — those tests pin ScopedKernelIsa(kScalar).
/// The SIMD tiers (AVX2/NEON, when available) are gated against the
/// reference at kSimdRelTolerance instead (FMA's single rounding legally
/// changes contraction bits), and must be *bit*-consistent within
/// themselves: batched vs row-by-row execution, every dispatch pin, and
/// the optimizer/colsum kernels (which use no FMA) stay bit-identical to
/// scalar on every tier. On top of the kernel-level checks, whole-model
/// parity: an Mlp trained step by step under each kernel mode must end
/// with byte-identical weights. The autotuner's pure threshold selection
/// (SelectTuning) is unit-tested with injected timings.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "models/cost_model.h"
#include "nn/kernels.h"
#include "nn/layers.h"
#include "nn/matrix.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "util/rng.h"

namespace qcfe {
namespace {

using kernels::KernelIsa;
using kernels::KernelMode;
using kernels::ScopedKernelIsa;
using kernels::ScopedKernelMode;

/// (rows, cols) of the left operand x inner/right dims, plus the zero
/// fraction to plant. Shapes cover register-panel edges: sub-panel, exact
/// panels, ragged tails, prime dims, degenerate empties.
struct GemmCase {
  size_t m, k, n;
  double sparsity;
};

const GemmCase kCases[] = {
    {0, 3, 4, 0.0},    // 0-row
    {3, 0, 4, 0.0},    // empty contraction
    {1, 1, 1, 0.0},    // scalars
    {1, 48, 8, 0.0},   // training row, exact j-panel
    {2, 7, 5, 0.3},    // sub-panel ragged
    {4, 8, 8, 0.0},    // exact register panel
    {5, 9, 17, 0.5},   // ragged everything
    {13, 17, 11, 0.9}, // primes, mostly zero
    {8, 6, 8, 1.0},    // all-zero left operand
    {64, 48, 48, 0.0}, // real hidden-layer shape, fully dense
    {33, 66, 48, 0.9}, // real feature shape, plan-row sparsity
};

Matrix RandomMatrix(size_t rows, size_t cols, double sparsity, Rng* rng) {
  Matrix m(rows, cols);
  // Row-wise: the padded storage's pad columns must stay zero, and the
  // draw sequence must cover exactly the logical elements.
  for (size_t r = 0; r < rows; ++r) {
    double* dst = m.RowPtr(r);
    for (size_t c = 0; c < cols; ++c) {
      dst[c] = rng->Uniform(0.0, 1.0) < sparsity ? 0.0 : rng->Gaussian(0.0, 1.0);
    }
  }
  return m;
}

void ExpectBitEqual(const Matrix& a, const Matrix& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (size_t i = 0; i < a.data().size(); ++i) {
    EXPECT_EQ(a.data()[i], b.data()[i]) << what << " flat index " << i;
  }
}

const KernelMode kAllModes[] = {KernelMode::kAuto, KernelMode::kDense,
                                KernelMode::kSparse};

TEST(KernelParityTest, GemmNNMatchesReferenceAcrossShapesAndModes) {
  // Bit-exactness against the reference holds in the scalar tier; the SIMD
  // tiers are gated at kSimdRelTolerance by SimdTierTest below.
  ScopedKernelIsa tier(KernelIsa::kScalar);
  Rng rng(11);
  for (const GemmCase& c : kCases) {
    Matrix a = RandomMatrix(c.m, c.k, c.sparsity, &rng);
    Matrix b = RandomMatrix(c.k, c.n, 0.0, &rng);
    Matrix want;
    kernels::reference::GemmNN(a, b, &want);
    for (KernelMode mode : kAllModes) {
      ScopedKernelMode pin(mode);
      Matrix got;
      kernels::GemmNN(a, b, &got);
      ExpectBitEqual(want, got, "GemmNN");
    }
  }
}

TEST(KernelParityTest, FusedBiasAndReluEpiloguesMatchSeparatePasses) {
  ScopedKernelIsa tier(KernelIsa::kScalar);
  Rng rng(12);
  for (const GemmCase& c : kCases) {
    Matrix a = RandomMatrix(c.m, c.k, c.sparsity, &rng);
    Matrix b = RandomMatrix(c.k, c.n, 0.0, &rng);
    Matrix bias = RandomMatrix(1, c.n, 0.0, &rng);
    Matrix want_bias, want_relu;
    kernels::reference::GemmNNBias(a, b, bias, &want_bias);
    kernels::reference::GemmNNBiasRelu(a, b, bias, &want_relu);
    for (KernelMode mode : kAllModes) {
      ScopedKernelMode pin(mode);
      Matrix got;
      kernels::GemmNNBias(a, b, bias, &got);
      ExpectBitEqual(want_bias, got, "GemmNNBias");
      kernels::GemmNNBiasRelu(a, b, bias, &got);
      ExpectBitEqual(want_relu, got, "GemmNNBiasRelu");
    }
  }
}

TEST(KernelParityTest, GemmBTMatchesReferenceAcrossShapesAndModes) {
  ScopedKernelIsa tier(KernelIsa::kScalar);
  Rng rng(13);
  for (const GemmCase& c : kCases) {
    // BT contracts over columns: a is (m x k), b is (n x k).
    Matrix a = RandomMatrix(c.m, c.k, c.sparsity, &rng);
    Matrix b = RandomMatrix(c.n, c.k, 0.0, &rng);
    Matrix want;
    kernels::reference::GemmBT(a, b, &want);
    for (KernelMode mode : kAllModes) {
      ScopedKernelMode pin(mode);
      Matrix got;
      kernels::GemmBT(a, b, &got);
      ExpectBitEqual(want, got, "GemmBT");
    }
  }
}

TEST(KernelParityTest, GemmATMatchesReferenceAcrossShapesAndModes) {
  ScopedKernelIsa tier(KernelIsa::kScalar);
  Rng rng(14);
  for (const GemmCase& c : kCases) {
    // AT contracts over rows: a is (k x m), b is (k x n).
    Matrix a = RandomMatrix(c.k, c.m, c.sparsity, &rng);
    Matrix b = RandomMatrix(c.k, c.n, 0.0, &rng);
    Matrix want;
    kernels::reference::GemmAT(a, b, &want);
    for (KernelMode mode : kAllModes) {
      ScopedKernelMode pin(mode);
      Matrix got;
      kernels::GemmAT(a, b, &got);
      ExpectBitEqual(want, got, "GemmAT");
    }
  }
}

TEST(KernelParityTest, GemmATAccumulateMatchesTemporaryPlusAdd) {
  ScopedKernelIsa tier(KernelIsa::kScalar);
  Rng rng(15);
  for (const GemmCase& c : kCases) {
    Matrix a = RandomMatrix(c.k, c.m, c.sparsity, &rng);
    Matrix b = RandomMatrix(c.k, c.n, 0.0, &rng);
    // Accumulate onto a warm, non-zero sink: the contract is
    // full-contraction-sum first, then one add per element.
    Matrix seed = RandomMatrix(c.m, c.n, 0.0, &rng);
    Matrix want = seed;
    kernels::reference::GemmATAccumulate(a, b, &want);
    for (KernelMode mode : kAllModes) {
      ScopedKernelMode pin(mode);
      Matrix got = seed;
      kernels::GemmATAccumulate(a, b, &got);
      ExpectBitEqual(want, got, "GemmATAccumulate");
    }
  }
}

TEST(KernelParityTest, ColSumAccumulateMatchesColSumPlusAdd) {
  // Deliberately NOT pinned to the scalar tier: column sums are vertical
  // (no FMA, no lane reductions), so every ISA tier must reproduce the
  // reference bits exactly.
  Rng rng(16);
  for (const GemmCase& c : kCases) {
    Matrix a = RandomMatrix(c.m, c.n, c.sparsity, &rng);
    Matrix seed = RandomMatrix(1, c.n, 0.0, &rng);
    Matrix want = seed;
    kernels::reference::ColSumAccumulate(a, &want);
    for (KernelMode mode : kAllModes) {
      ScopedKernelMode pin(mode);
      Matrix got = seed;
      kernels::ColSumAccumulate(a, &got);
      ExpectBitEqual(want, got, "ColSumAccumulate");
    }
  }
}

TEST(KernelParityTest, ReluMaskBackwardMatchesCopyThenMaskAndAliases) {
  Rng rng(17);
  Matrix pre = RandomMatrix(9, 13, 0.3, &rng);
  Matrix grad = RandomMatrix(9, 13, 0.0, &rng);
  Matrix want = grad;
  for (size_t i = 0; i < want.data().size(); ++i) {
    if (pre.data()[i] <= 0.0) want.data()[i] = 0.0;
  }
  Matrix got;
  kernels::ReluMaskBackward(grad, pre, &got);
  ExpectBitEqual(want, got, "ReluMaskBackward");
  // In-place form (grad_in aliases grad_out).
  Matrix inplace = grad;
  kernels::ReluMaskBackward(inplace, pre, &inplace);
  ExpectBitEqual(want, inplace, "ReluMaskBackward in-place");
}

// ------------------------------------------------------------ matrix API

TEST(MatrixKernelTest, ResetShapeKeepsCapacityOnSteadyShapes) {
  Matrix m(8, 16);
  const double* buf = m.data().data();
  m.ResetShape(8, 16);
  EXPECT_EQ(m.data().data(), buf);
  for (double v : m.data()) EXPECT_EQ(v, 0.0);
  // Shrinking reuses the buffer too.
  m.ResetShape(4, 8);
  EXPECT_EQ(m.data().data(), buf);
  m.ResetShapeUninitialized(8, 16);
  EXPECT_EQ(m.data().data(), buf);
}

TEST(MatrixKernelTest, ColMeanMatchesColSumScaled) {
  Rng rng(18);
  Matrix m = RandomMatrix(7, 5, 0.2, &rng);
  Matrix want = m.ColSum();
  want.Scale(1.0 / 7.0);
  Matrix got = m.ColMean();
  ExpectBitEqual(want, got, "ColMean");
  // Empty matrix: a 0 x n mean is all zeros, no division.
  Matrix empty(0, 3);
  Matrix mean = empty.ColMean();
  for (double v : mean.data()) EXPECT_EQ(v, 0.0);
}

// ------------------------------------------------------- whole-model parity

/// Trains a small Mlp for a few Adam steps under `mode`; returns the final
/// flattened parameters.
std::vector<double> TrainUnderMode(KernelMode mode) {
  // Scalar tier: the reference replay is scalar arithmetic, so bit-equal
  // whole-model training across modes is only promised there.
  ScopedKernelIsa tier(KernelIsa::kScalar);
  ScopedKernelMode pin(mode);
  Rng rng(77);
  Mlp net({9, 16, 16, 1}, Activation::kRelu, &rng);
  AdamOptimizer opt(net.Params(), net.Grads(), 1e-2);
  Matrix x = RandomMatrix(24, 9, 0.6, &rng);
  std::vector<double> y(24);
  for (size_t i = 0; i < y.size(); ++i) y[i] = rng.Gaussian(0.0, 1.0);
  Mlp::Tape tape;
  GradSink sink;
  for (int step = 0; step < 20; ++step) {
    opt.ZeroGrad();
    sink.InitLike(net.Grads());
    const Matrix& out = net.Forward(x, &tape);
    Matrix grad(out.rows(), 1);
    for (size_t r = 0; r < out.rows(); ++r) {
      grad.At(r, 0) = 2.0 * (out.At(r, 0) - y[r]) / 24.0;
    }
    net.Backward(grad, &tape, &sink);
    sink.AddTo(net.Grads());
    EXPECT_TRUE(opt.Step().ok());
  }
  std::vector<double> flat;
  for (Matrix* p : net.Params()) {
    for (double v : p->data()) flat.push_back(v);
  }
  return flat;
}

TEST(KernelModelParityTest, TrainingIsBitIdenticalAcrossKernelModes) {
  std::vector<double> reference = TrainUnderMode(KernelMode::kReference);
  for (KernelMode mode : kAllModes) {
    std::vector<double> got = TrainUnderMode(mode);
    ASSERT_EQ(reference.size(), got.size());
    for (size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(reference[i], got[i])
          << "param " << i << " under mode " << static_cast<int>(mode);
    }
  }
}

TEST(KernelModelParityTest, FusedServingForwardMatchesLayerwisePredict) {
  Rng rng(79);
  Mlp net({7, 12, 12, 2}, Activation::kRelu, &rng);
  Matrix x = RandomMatrix(17, 7, 0.4, &rng);
  Matrix rowwise = net.Predict(x);  // layer-by-layer, allocating
  for (KernelMode mode : kAllModes) {
    ScopedKernelMode pin(mode);
    Mlp::Scratch scratch;
    const Matrix& fused = net.Predict(x, &scratch);
    ASSERT_EQ(rowwise.rows(), fused.rows());
    for (size_t i = 0; i < rowwise.data().size(); ++i) {
      EXPECT_EQ(rowwise.data()[i], fused.data()[i])
          << "mode " << static_cast<int>(mode);
    }
  }
}

TEST(KernelModelParityTest, TapeReuseDoesNotChangeForwardBackward) {
  // One tape serving many different batches (the training arena pattern)
  // must give the same bits as a fresh tape each time.
  Rng rng(81);
  Mlp net({6, 10, 1}, Activation::kTanh, &rng);
  Mlp::Tape reused;
  for (int round = 0; round < 4; ++round) {
    Matrix x = RandomMatrix(3 + round * 5, 6, 0.3, &rng);
    Mlp::Tape fresh;
    const Matrix& out_reused = net.Forward(x, &reused);
    Matrix out_snapshot = out_reused;
    const Matrix& out_fresh = net.Forward(x, &fresh);
    for (size_t i = 0; i < out_fresh.data().size(); ++i) {
      EXPECT_EQ(out_fresh.data()[i], out_snapshot.data()[i]);
    }
    Matrix grad(out_snapshot.rows(), 1);
    for (size_t r = 0; r < grad.rows(); ++r) grad.At(r, 0) = 1.0;
    Matrix gin_reused = net.Backward(grad, &reused, nullptr);
    Matrix gin_fresh = net.Backward(grad, &fresh, nullptr);
    for (size_t i = 0; i < gin_fresh.data().size(); ++i) {
      EXPECT_EQ(gin_fresh.data()[i], gin_reused.data()[i]);
    }
  }
}

// ---------------------------------------------------------- SIMD tiers

/// The SIMD tiers available on this machine/build (empty on plain builds:
/// the tier tests then validate nothing, and the scalar suite above is the
/// whole contract).
std::vector<KernelIsa> AvailableSimdTiers() {
  std::vector<KernelIsa> tiers;
  if (kernels::KernelIsaAvailable(KernelIsa::kAvx2)) {
    tiers.push_back(KernelIsa::kAvx2);
  }
  if (kernels::KernelIsaAvailable(KernelIsa::kNeon)) {
    tiers.push_back(KernelIsa::kNeon);
  }
  return tiers;
}

/// Per-element gate at the documented cross-tier tolerance, relative to
/// max(|want|, 1) so near-cancelled elements don't demand absurd absolute
/// precision.
void ExpectWithinRelTol(const Matrix& want, const Matrix& got,
                        const char* what) {
  ASSERT_EQ(want.rows(), got.rows()) << what;
  ASSERT_EQ(want.cols(), got.cols()) << what;
  for (size_t r = 0; r < want.rows(); ++r) {
    for (size_t c = 0; c < want.cols(); ++c) {
      const double w = want.At(r, c);
      const double g = got.At(r, c);
      const double denom = std::abs(w) > 1.0 ? std::abs(w) : 1.0;
      EXPECT_LE(std::abs(g - w), kernels::kSimdRelTolerance * denom)
          << what << " at (" << r << ", " << c << "): want " << w << " got "
          << g;
    }
  }
}

TEST(SimdTierTest, ProductsMatchReferenceWithinToleranceOnEdgeShapes) {
  // The satellite edge-shape sweep: 0-row, 1x1, prime dims, all-zero left
  // operands and tail columns not divisible by the vector width all live
  // in kCases. Every dispatch pin must stay inside the documented
  // tolerance on every available SIMD tier.
  for (KernelIsa isa : AvailableSimdTiers()) {
    ScopedKernelIsa tier(isa);
    Rng rng(21);
    for (const GemmCase& c : kCases) {
      Matrix a = RandomMatrix(c.m, c.k, c.sparsity, &rng);
      Matrix b = RandomMatrix(c.k, c.n, 0.0, &rng);
      Matrix bias = RandomMatrix(1, c.n, 0.0, &rng);
      Matrix want, got;
      kernels::reference::GemmNN(a, b, &want);
      for (KernelMode mode : kAllModes) {
        ScopedKernelMode pin(mode);
        kernels::GemmNN(a, b, &got);
        ExpectWithinRelTol(want, got, "simd GemmNN");
      }
      kernels::reference::GemmNNBiasRelu(a, b, bias, &want);
      kernels::simd::GemmNNBiasRelu(a, b, bias, &got);
      ExpectWithinRelTol(want, got, "simd GemmNNBiasRelu");
      Matrix bt = RandomMatrix(c.n, c.k, 0.0, &rng);
      kernels::reference::GemmBT(a, bt, &want);
      kernels::simd::GemmBT(a, bt, &got);
      ExpectWithinRelTol(want, got, "simd GemmBT");
      Matrix at_a = RandomMatrix(c.k, c.m, c.sparsity, &rng);
      Matrix at_b = RandomMatrix(c.k, c.n, 0.0, &rng);
      kernels::reference::GemmAT(at_a, at_b, &want);
      kernels::simd::GemmAT(at_a, at_b, &got);
      ExpectWithinRelTol(want, got, "simd GemmAT");
      Matrix seed = RandomMatrix(c.m, c.n, 0.0, &rng);
      want = seed;
      got = seed;
      kernels::reference::GemmATAccumulate(at_a, at_b, &want);
      kernels::simd::GemmATAccumulate(at_a, at_b, &got);
      ExpectWithinRelTol(want, got, "simd GemmATAccumulate");
    }
  }
}

TEST(SimdTierTest, DispatchPathsAreBitIdenticalWithinEachTier) {
  // The within-tier determinism contract: under one pinned tier, dense vs
  // sparse dispatch and batched vs row-by-row execution must agree bit for
  // bit (per-element chains depend only on the element's own inputs).
  std::vector<KernelIsa> tiers = AvailableSimdTiers();
  tiers.push_back(KernelIsa::kScalar);
  for (KernelIsa isa : tiers) {
    ScopedKernelIsa tier(isa);
    Rng rng(23);
    for (const GemmCase& c : kCases) {
      Matrix a = RandomMatrix(c.m, c.k, c.sparsity, &rng);
      Matrix b = RandomMatrix(c.k, c.n, 0.0, &rng);
      Matrix dense, sparse;
      {
        ScopedKernelMode pin(KernelMode::kDense);
        kernels::GemmNN(a, b, &dense);
      }
      {
        ScopedKernelMode pin(KernelMode::kSparse);
        kernels::GemmNN(a, b, &sparse);
      }
      ExpectBitEqual(dense, sparse, "dense vs sparse dispatch");
      // Batched product vs each row alone through the same entry point.
      for (size_t r = 0; r < c.m; ++r) {
        Matrix row = a.SelectRows({r});
        Matrix row_out;
        kernels::simd::GemmNN(row, b, &row_out);
        for (size_t j = 0; j < c.n; ++j) {
          ASSERT_EQ(row_out.At(0, j), dense.At(r, j))
              << "batched vs row-wise, tier " << kernels::KernelIsaName(isa)
              << " row " << r << " col " << j;
        }
      }
    }
  }
}

TEST(SimdTierTest, OptimizerAndColSumAreBitIdenticalAcrossTiers) {
  // AdamStep/SgdStep/ColSumAccumulate use single-rounding lane arithmetic
  // only (no FMA, no reductions): every tier must produce the scalar bits.
  for (KernelIsa isa : AvailableSimdTiers()) {
    Rng rng(25);
    Matrix p0 = RandomMatrix(13, 11, 0.0, &rng);
    Matrix g = RandomMatrix(13, 11, 0.3, &rng);
    Matrix m0 = RandomMatrix(13, 11, 0.0, &rng);
    Matrix v0 = RandomMatrix(13, 11, 0.0, &rng);
    v0.Hadamard(v0);  // second moments must be non-negative for sqrt
    Matrix ps = p0, ms = m0, vs = v0;
    {
      ScopedKernelIsa tier(KernelIsa::kScalar);
      kernels::AdamStep(&ps, g, &ms, &vs, 1e-3, 0.9, 0.999, 1e-8, 0.1, 0.01);
    }
    Matrix pv = p0, mv = m0, vv = v0;
    {
      ScopedKernelIsa tier(isa);
      kernels::AdamStep(&pv, g, &mv, &vv, 1e-3, 0.9, 0.999, 1e-8, 0.1, 0.01);
    }
    ExpectBitEqual(ps, pv, "AdamStep params");
    ExpectBitEqual(ms, mv, "AdamStep first moment");
    ExpectBitEqual(vs, vv, "AdamStep second moment");

    Matrix sp = p0, sv = m0;
    {
      ScopedKernelIsa tier(KernelIsa::kScalar);
      kernels::SgdStep(&sp, g, &sv, 1e-2, 0.9);
    }
    Matrix xp = p0, xv = m0;
    {
      ScopedKernelIsa tier(isa);
      kernels::SgdStep(&xp, g, &xv, 1e-2, 0.9);
    }
    ExpectBitEqual(sp, xp, "SgdStep params");
    ExpectBitEqual(sv, xv, "SgdStep velocity");

    Matrix acc_s = RandomMatrix(1, 11, 0.0, &rng);
    Matrix acc_v = acc_s;
    {
      ScopedKernelIsa tier(KernelIsa::kScalar);
      kernels::ColSumAccumulate(g, &acc_s);
    }
    {
      ScopedKernelIsa tier(isa);
      kernels::ColSumAccumulate(g, &acc_v);
    }
    ExpectBitEqual(acc_s, acc_v, "ColSumAccumulate");
  }
}

TEST(SimdTierTest, IsaStateClampsAndReportsNames) {
  // An unavailable pin clamps to the scalar tier instead of crashing in a
  // missing table.
  const KernelIsa saved = kernels::GetKernelIsa();
  kernels::SetKernelIsa(KernelIsa::kNeon);
  if (!kernels::KernelIsaAvailable(KernelIsa::kNeon)) {
    EXPECT_EQ(kernels::GetKernelIsa(), KernelIsa::kScalar);
  } else {
    EXPECT_EQ(kernels::GetKernelIsa(), KernelIsa::kNeon);
  }
  kernels::SetKernelIsa(saved);
  EXPECT_TRUE(kernels::KernelIsaAvailable(KernelIsa::kScalar));
  EXPECT_TRUE(kernels::KernelIsaAvailable(kernels::DetectKernelIsa()));
  EXPECT_STREQ(kernels::KernelIsaName(KernelIsa::kScalar), "scalar");
  EXPECT_STREQ(kernels::KernelIsaName(KernelIsa::kAvx2), "avx2");
  EXPECT_STREQ(kernels::KernelIsaName(KernelIsa::kNeon), "neon");
}

// ------------------------------------------------------ matrix alignment

TEST(MatrixLayoutTest, RowsAre64ByteAlignedWithZeroPadColumns) {
  Rng rng(27);
  for (size_t cols : {1u, 5u, 8u, 11u, 17u, 48u, 66u}) {
    Matrix m = RandomMatrix(7, cols, 0.2, &rng);
    EXPECT_EQ(m.ld() % 8, 0u);
    EXPECT_GE(m.ld(), cols);
    EXPECT_LT(m.ld() - cols, 8u);
    for (size_t r = 0; r < m.rows(); ++r) {
      EXPECT_EQ(reinterpret_cast<uintptr_t>(m.RowPtr(r)) % 64, 0u)
          << "row " << r << " cols " << cols;
      for (size_t pad = cols; pad < m.ld(); ++pad) {
        EXPECT_EQ(m.data()[r * m.ld() + pad], 0.0)
            << "pad column " << pad << " row " << r;
      }
    }
    // Mutators that rewrite whole matrices keep the pads zero.
    m.Fill(3.5);
    Matrix t = m.Transposed();
    for (size_t r = 0; r < m.rows(); ++r) {
      for (size_t pad = cols; pad < m.ld(); ++pad) {
        EXPECT_EQ(m.data()[r * m.ld() + pad], 0.0);
      }
    }
    for (size_t r = 0; r < t.rows(); ++r) {
      for (size_t pad = t.cols(); pad < t.ld(); ++pad) {
        EXPECT_EQ(t.data()[r * t.ld() + pad], 0.0);
      }
    }
  }
}

// ------------------------------------------------- startup autotuning

kernels::ProbeMeasurements FakeProbes() {
  kernels::ProbeMeasurements pm;
  pm.rows = {1, 2, 4, 8, 16};
  // Streaming wins up to 4 rows, the panel wins from 8 on.
  pm.sparse_ns = {10.0, 20.0, 40.0, 100.0, 220.0};
  pm.dense_ns = {30.0, 35.0, 45.0, 90.0, 150.0};
  pm.zero_fractions = {0.0, 0.25, 0.5, 0.75};
  // Dense wins at zf 0 and 0.25, sparse from 0.5 on.
  pm.sparse_zf_ns = {120.0, 100.0, 60.0, 30.0};
  pm.dense_zf_ns = {80.0, 80.0, 80.0, 80.0};
  pm.scalar_gemm_ns = 300.0;
  pm.simd_gemm_ns = 100.0;
  return pm;
}

TEST(KernelAutotuneTest, SelectTuningIsDeterministicOnInjectedTimings) {
  const kernels::ProbeMeasurements pm = FakeProbes();
  const kernels::KernelTuning a = kernels::SelectTuning(KernelIsa::kAvx2, pm);
  const kernels::KernelTuning b = kernels::SelectTuning(KernelIsa::kAvx2, pm);
  EXPECT_TRUE(a.autotuned);
  EXPECT_EQ(a.isa, KernelIsa::kAvx2);
  EXPECT_EQ(a.dense_min_rows, b.dense_min_rows);
  EXPECT_EQ(a.sparse_dispatch_threshold, b.sparse_dispatch_threshold);
  EXPECT_EQ(a.simd_gemm_speedup, b.simd_gemm_speedup);
  // The suffix-win rules on the injected grid: dense wins from 8 rows on;
  // sparse wins from zf 0.5, midpoint with the last dense-winning 0.25.
  EXPECT_EQ(a.dense_min_rows, 8u);
  EXPECT_DOUBLE_EQ(a.sparse_dispatch_threshold, 0.375);
  EXPECT_DOUBLE_EQ(a.simd_gemm_speedup, 3.0);
}

TEST(KernelAutotuneTest, SelectTuningIsMonotoneInTheCrossover) {
  // Making the streaming path slower can only move the dense threshold
  // down (never up), and vice versa.
  kernels::ProbeMeasurements slow_stream = FakeProbes();
  for (double& ns : slow_stream.sparse_ns) ns *= 4.0;
  kernels::ProbeMeasurements fast_stream = FakeProbes();
  for (double& ns : fast_stream.sparse_ns) ns *= 0.25;
  const size_t base =
      kernels::SelectTuning(KernelIsa::kScalar, FakeProbes()).dense_min_rows;
  const size_t lo =
      kernels::SelectTuning(KernelIsa::kScalar, slow_stream).dense_min_rows;
  const size_t hi =
      kernels::SelectTuning(KernelIsa::kScalar, fast_stream).dense_min_rows;
  EXPECT_LE(lo, base);
  EXPECT_GE(hi, base);
  // Extremes: dense winning everywhere selects the smallest grid row;
  // dense winning nowhere disables the panel (and a sparse path that never
  // wins disables the zero-fraction dispatch with a > 1 threshold).
  kernels::ProbeMeasurements always = FakeProbes();
  for (double& ns : always.sparse_ns) ns = 1e9;
  for (double& ns : always.sparse_zf_ns) ns = 1e9;
  const kernels::KernelTuning all_dense =
      kernels::SelectTuning(KernelIsa::kScalar, always);
  EXPECT_EQ(all_dense.dense_min_rows, 1u);
  EXPECT_GT(all_dense.sparse_dispatch_threshold, 1.0);
  kernels::ProbeMeasurements never = FakeProbes();
  for (double& ns : never.dense_ns) ns = 1e9;
  for (double& ns : never.dense_zf_ns) ns = 1e9;
  const kernels::KernelTuning no_dense =
      kernels::SelectTuning(KernelIsa::kScalar, never);
  EXPECT_EQ(no_dense.dense_min_rows, SIZE_MAX);
  EXPECT_DOUBLE_EQ(no_dense.sparse_dispatch_threshold, 0.0);
}

TEST(KernelAutotuneTest, MalformedProbesFallBackToCompiledDefaults) {
  kernels::ProbeMeasurements empty;
  const kernels::KernelTuning t =
      kernels::SelectTuning(KernelIsa::kScalar, empty);
  EXPECT_FALSE(t.autotuned);
  EXPECT_EQ(t.dense_min_rows, 32u);
  EXPECT_DOUBLE_EQ(t.sparse_dispatch_threshold,
                   kernels::kSparseDispatchThreshold);
  kernels::ProbeMeasurements bad = FakeProbes();
  bad.dense_ns[2] = 0.0;  // non-positive timing
  EXPECT_FALSE(kernels::SelectTuning(KernelIsa::kScalar, bad).autotuned);
  kernels::ProbeMeasurements ragged = FakeProbes();
  ragged.sparse_ns.pop_back();  // mismatched grid
  EXPECT_FALSE(kernels::SelectTuning(KernelIsa::kScalar, ragged).autotuned);
}

TEST(KernelAutotuneTest, ProcessTuningIsLazyFixedAndIsaTagged) {
  kernels::Autotune();
  const kernels::KernelTuning& t = kernels::Tuning();
  EXPECT_EQ(t.isa, kernels::GetKernelIsa());
  // Fixed for the process: a second read returns the same thresholds.
  const kernels::KernelTuning& again = kernels::Tuning();
  EXPECT_EQ(t.dense_min_rows, again.dense_min_rows);
  EXPECT_EQ(t.sparse_dispatch_threshold, again.sparse_dispatch_threshold);
  // The scalar tier always reports itself under a scalar pin.
  ScopedKernelIsa tier(KernelIsa::kScalar);
  EXPECT_EQ(kernels::Tuning().isa, KernelIsa::kScalar);
  EXPECT_DOUBLE_EQ(kernels::Tuning().simd_gemm_speedup, 1.0);
}

// ------------------------------------------------------- chunk autotuning

TEST(ChunkAutotuneTest, ExplicitChunkSizePassesThrough) {
  TrainConfig cfg;
  cfg.chunk_size = 7;
  EXPECT_EQ(ResolveTrainChunkSize(cfg, 1e6, 1.0), 7u);
}

TEST(ChunkAutotuneTest, AutoWidthGrowsWithMergeCostAndClampsToBatch) {
  TrainConfig cfg;
  cfg.chunk_size = 0;
  cfg.batch_size = 32;
  // Cheap merges relative to per-sample compute: fine-grained chunks.
  size_t fine = ResolveTrainChunkSize(cfg, 100.0, 10000.0);
  // Expensive merges (a small model): wider chunks.
  size_t coarse = ResolveTrainChunkSize(cfg, 10000.0, 10000.0);
  EXPECT_LT(fine, coarse);
  EXPECT_GE(fine, 1u);
  // Never wider than a batch.
  EXPECT_EQ(ResolveTrainChunkSize(cfg, 1e9, 1.0), 32u);
  // Degenerate measurements fall back to single-sample chunks.
  EXPECT_EQ(ResolveTrainChunkSize(cfg, 0.0, 0.0), 1u);
}

}  // namespace
}  // namespace qcfe
