/// Parity suite for the NN kernel layer (nn/kernels.h).
///
/// Every tier's table slots are checked directly (kernels_internal.h),
/// across edge shapes (0-row, 1-row, odd and prime dims, all-zero rows,
/// fully dense): on the scalar tier each slot must produce exactly the bits
/// of the historical reference loops; on the AVX2 tier (when available)
/// each slot is gated against the reference at kSimdRelTolerance, because
/// FMA's single rounding legally changes contraction bits. On every tier,
/// every slot that computes a product must agree with every other slot for
/// that product bit for bit (the within-tier determinism contract that
/// makes dispatch invisible), as must batched and row-by-row execution;
/// the optimizer/colsum kernels (which use no FMA) stay bit-identical to
/// scalar on every tier. On top of the kernel-level checks, a small Mlp
/// trained on the scalar tier is pinned to its final parameter hash.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <utility>
#include <vector>

#include "models/cost_model.h"
#include "nn/kernels.h"
#include "nn/kernels_internal.h"
#include "nn/layers.h"
#include "nn/matrix.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace qcfe {
namespace {

namespace internal = kernels::internal;
using kernels::KernelIsa;
using kernels::ScopedKernelIsa;

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
    {66, 1, 48, 0.9},  // one-row contraction (a lone node's dW)
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

/// The tiers available on this machine/build, scalar first.
std::vector<KernelIsa> AvailableTiers() {
  std::vector<KernelIsa> tiers = {KernelIsa::kScalar};
  if (kernels::KernelIsaAvailable(KernelIsa::kAvx2)) {
    tiers.push_back(KernelIsa::kAvx2);
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

/// Every slot's (and every dispatched entry point's) result for one case's
/// products on one tier, grouped by the product they compute.
struct SlotResults {
  std::vector<std::pair<const char*, Matrix>> nn, nn_bias, nn_relu, bt, at,
      at_acc, colsum;
};

SlotResults RunSlots(KernelIsa isa, const GemmCase& c, Rng* rng) {
  const internal::KernelTable& t = internal::TableFor(isa);
  ScopedKernelIsa tier(isa);
  SlotResults r;
  Matrix a = RandomMatrix(c.m, c.k, c.sparsity, rng);
  Matrix b = RandomMatrix(c.k, c.n, 0.0, rng);
  Matrix bias = RandomMatrix(1, c.n, 0.0, rng);
  Matrix out;
  t.dense_nn(a, b, nullptr, &out, internal::Epilogue::kNone);
  r.nn.emplace_back("dense_nn", out);
  t.sparse_nn(a, b, &out);
  r.nn.emplace_back("sparse_nn", out);
  kernels::GemmNN(a, b, &out);
  r.nn.emplace_back("GemmNN", out);
  t.dense_nn(a, b, &bias, &out, internal::Epilogue::kBias);
  r.nn_bias.emplace_back("dense_nn bias", out);
  t.sparse_nn(a, b, &out);
  internal::BiasPass(bias, &out);
  r.nn_bias.emplace_back("sparse_nn + BiasPass", out);
  kernels::GemmNNBias(a, b, bias, &out);
  r.nn_bias.emplace_back("GemmNNBias", out);
  t.dense_nn(a, b, &bias, &out, internal::Epilogue::kBiasRelu);
  r.nn_relu.emplace_back("dense_nn bias+relu", out);
  t.sparse_nn(a, b, &out);
  internal::BiasPass(bias, &out);
  internal::ReluPass(&out);
  r.nn_relu.emplace_back("sparse_nn + BiasPass + ReluPass", out);
  kernels::GemmNNBiasRelu(a, b, bias, &out);
  r.nn_relu.emplace_back("GemmNNBiasRelu", out);
  // BT contracts over columns: a is (m x k), bt is (n x k).
  Matrix bt = RandomMatrix(c.n, c.k, 0.0, rng);
  t.bt(a, bt, &out);
  r.bt.emplace_back("bt", out);
  kernels::GemmBT(a, bt, &out);
  r.bt.emplace_back("GemmBT", out);
  // AT contracts over rows: at_a is (k x m), at_b is (k x n).
  Matrix at_a = RandomMatrix(c.k, c.m, c.sparsity, rng);
  Matrix at_b = RandomMatrix(c.k, c.n, 0.0, rng);
  t.at_panel(at_a, at_b, &out);
  r.at.emplace_back("at_panel", out);
  t.at_stream(at_a, at_b, &out);
  r.at.emplace_back("at_stream", out);
  kernels::GemmAT(at_a, at_b, &out);
  r.at.emplace_back("GemmAT", out);
  // Accumulate onto a warm, non-zero destination: the contract is
  // full-contraction-sum first, then one add per element.
  const Matrix seed = RandomMatrix(c.m, c.n, 0.0, rng);
  const size_t whole[2] = {0, c.k};
  out = seed;
  t.at_acc_panel(at_a, at_b, whole, 1, 0, c.m, &out);
  r.at_acc.emplace_back("at_acc_panel", out);
  out = seed;
  kernels::GemmATAccumulateSegments(at_a, at_b, {0, c.k}, &out);
  r.at_acc.emplace_back("GemmATAccumulateSegments", out);
  const Matrix col_seed = RandomMatrix(1, c.n, 0.0, rng);
  const size_t rows[2] = {0, c.m};
  Matrix sums = RandomMatrix(c.m, c.n, c.sparsity, rng);
  out = col_seed;
  t.colsum_acc(sums, rows, 1, &out);
  r.colsum.emplace_back("colsum_acc", out);
  out = col_seed;
  kernels::ColSumAccumulateSegments(sums, {0, c.m}, &out);
  r.colsum.emplace_back("ColSumAccumulateSegments", out);
  // The reference oracle for each group, on the same inputs, goes last.
  kernels::reference::GemmNN(a, b, &out);
  r.nn.emplace_back("reference", out);
  kernels::reference::GemmNNBias(a, b, bias, &out);
  r.nn_bias.emplace_back("reference", out);
  kernels::reference::GemmNNBiasRelu(a, b, bias, &out);
  r.nn_relu.emplace_back("reference", out);
  kernels::reference::GemmBT(a, bt, &out);
  r.bt.emplace_back("reference", out);
  kernels::reference::GemmAT(at_a, at_b, &out);
  r.at.emplace_back("reference", out);
  out = seed;
  kernels::reference::GemmATAccumulate(at_a, at_b, &out);
  r.at_acc.emplace_back("reference", out);
  out = col_seed;
  kernels::reference::ColSumAccumulate(sums, &out);
  r.colsum.emplace_back("reference", out);
  return r;
}

/// The groups of one SlotResults, each ending in its reference result.
std::vector<const std::vector<std::pair<const char*, Matrix>>*> Groups(
    const SlotResults& r) {
  return {&r.nn, &r.nn_bias, &r.nn_relu, &r.bt, &r.at, &r.at_acc, &r.colsum};
}

TEST(KernelParityTest, EverySlotMatchesTheReferenceOnEveryTier) {
  // Bit for bit on the scalar tier; within kSimdRelTolerance on AVX2,
  // except the column sums, which use no FMA and no lane reductions and so
  // match the reference bit for bit on every tier.
  for (KernelIsa isa : AvailableTiers()) {
    Rng rng(11);
    for (const GemmCase& c : kCases) {
      const SlotResults r = RunSlots(isa, c, &rng);
      for (const auto* group : Groups(r)) {
        const Matrix& want = group->back().second;
        for (size_t i = 0; i + 1 < group->size(); ++i) {
          const auto& [slot, got] = (*group)[i];
          SCOPED_TRACE(::testing::Message()
                       << kernels::KernelIsaName(isa) << " " << slot << " "
                       << c.m << "x" << c.k << "x" << c.n);
          if (isa == KernelIsa::kScalar || group == &r.colsum) {
            ExpectBitEqual(want, got, slot);
          } else {
            ExpectWithinRelTol(want, got, slot);
          }
        }
      }
    }
  }
}

TEST(KernelParityTest, SlotsAgreeBitForBitWithinEachTier) {
  // The within-tier determinism contract: on one tier, every slot (and the
  // dispatched entry point) computing a product gives the same bits, so
  // the dispatch rule only ever changes speed.
  for (KernelIsa isa : AvailableTiers()) {
    Rng rng(23);
    for (const GemmCase& c : kCases) {
      const SlotResults r = RunSlots(isa, c, &rng);
      for (const auto* group : Groups(r)) {
        for (size_t i = 1; i + 1 < group->size(); ++i) {
          SCOPED_TRACE(::testing::Message()
                       << kernels::KernelIsaName(isa) << " "
                       << (*group)[0].first << " vs " << (*group)[i].first
                       << " " << c.m << "x" << c.k << "x" << c.n);
          ExpectBitEqual((*group)[0].second, (*group)[i].second,
                         (*group)[i].first);
        }
      }
    }
  }
}

TEST(KernelParityTest, BatchedProductsMatchRowByRowWithinEachTier) {
  // Per-element chains depend only on the element's own inputs, so a
  // batched product equals each row computed alone, in both NN slots.
  for (KernelIsa isa : AvailableTiers()) {
    const internal::KernelTable& t = internal::TableFor(isa);
    Rng rng(25);
    for (const GemmCase& c : kCases) {
      Matrix a = RandomMatrix(c.m, c.k, c.sparsity, &rng);
      Matrix b = RandomMatrix(c.k, c.n, 0.0, &rng);
      Matrix dense, sparse;
      t.dense_nn(a, b, nullptr, &dense, internal::Epilogue::kNone);
      t.sparse_nn(a, b, &sparse);
      for (size_t r = 0; r < c.m; ++r) {
        Matrix row = a.SelectRows({r});
        Matrix row_dense, row_sparse;
        t.dense_nn(row, b, nullptr, &row_dense, internal::Epilogue::kNone);
        t.sparse_nn(row, b, &row_sparse);
        for (size_t j = 0; j < c.n; ++j) {
          ASSERT_EQ(row_dense.At(0, j), dense.At(r, j))
              << kernels::KernelIsaName(isa) << " dense row " << r;
          ASSERT_EQ(row_sparse.At(0, j), sparse.At(r, j))
              << kernels::KernelIsaName(isa) << " sparse row " << r;
        }
      }
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

TEST(MlpKernelParityTest, ScalarTierMlpTrainingIsPinned) {
  // A small Mlp trained for a few Adam steps on the scalar tier, pinned to
  // the CRC-32 of its final parameters. Captured while the kernel layer
  // could still replay the historical pre-kernel loops, which gave the
  // same bits as every dispatch path; never regenerate it.
  ScopedKernelIsa tier(KernelIsa::kScalar);
  Rng rng(77);
  Mlp net({9, 16, 16, 1}, Activation::kRelu, &rng);
  AdamOptimizer opt(net.Params(), net.Grads(), 1e-2);
  Matrix x = RandomMatrix(24, 9, 0.6, &rng);
  std::vector<double> y(24);
  for (size_t i = 0; i < y.size(); ++i) y[i] = rng.Gaussian(0.0, 1.0);
  Mlp::Tape tape;
  const std::vector<size_t> whole = {0, x.rows()};
  for (int step = 0; step < 20; ++step) {
    opt.ZeroGrad();
    const Matrix& out = net.Forward(x, &tape);
    Matrix grad(out.rows(), 1);
    for (size_t r = 0; r < out.rows(); ++r) {
      grad.At(r, 0) = 2.0 * (out.At(r, 0) - y[r]) / 24.0;
    }
    net.Backward(grad, &tape);
    std::vector<Matrix*> grads = net.Grads();
    for (size_t s = 0; s < grads.size(); ++s) {
      net.AddParamGrad(s, tape, whole, grads[s]);
    }
    EXPECT_TRUE(opt.Step().ok());
  }
  // Over each parameter's whole buffer, row padding included.
  std::vector<double> flat;
  for (Matrix* p : net.Params()) {
    for (double v : p->data()) flat.push_back(v);
  }
  const uint32_t crc = Crc32(flat.data(), flat.size() * sizeof(double));
  char hex[16];
  std::snprintf(hex, sizeof(hex), "0x%08X", crc);
  EXPECT_EQ(crc, 0x004A31C9u) << "got " << hex;
}

TEST(MlpKernelParityTest, FusedServingForwardMatchesLayerwisePredict) {
  Rng rng(79);
  Mlp net({7, 12, 12, 2}, Activation::kRelu, &rng);
  Matrix x = RandomMatrix(17, 7, 0.4, &rng);
  for (KernelIsa isa : AvailableTiers()) {
    ScopedKernelIsa tier(isa);
    Matrix rowwise = net.Predict(x);  // layer-by-layer, allocating
    Mlp::Scratch scratch;
    const Matrix& fused = net.Predict(x, &scratch);
    ASSERT_EQ(rowwise.rows(), fused.rows());
    for (size_t i = 0; i < rowwise.data().size(); ++i) {
      EXPECT_EQ(rowwise.data()[i], fused.data()[i])
          << kernels::KernelIsaName(isa);
    }
  }
}

TEST(MlpKernelParityTest, TapeReuseDoesNotChangeForwardBackward) {
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
    Matrix gin_reused = net.Backward(grad, &reused);
    Matrix gin_fresh = net.Backward(grad, &fresh);
    for (size_t i = 0; i < gin_fresh.data().size(); ++i) {
      EXPECT_EQ(gin_fresh.data()[i], gin_reused.data()[i]);
    }
  }
}

// ---------------------------------------------------------- SIMD tiers

TEST(SimdTierTest, OptimizerAndColSumAreBitIdenticalAcrossTiers) {
  // AdamStep/SgdStep/ColSumAccumulateSegments use single-rounding lane
  // arithmetic only (no FMA, no reductions): every tier must produce the
  // scalar bits.
  for (KernelIsa isa : AvailableTiers()) {
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
      kernels::ColSumAccumulateSegments(g, {0, g.rows()}, &acc_s);
    }
    {
      ScopedKernelIsa tier(isa);
      kernels::ColSumAccumulateSegments(g, {0, g.rows()}, &acc_v);
    }
    ExpectBitEqual(acc_s, acc_v, "ColSumAccumulateSegments");
  }
}

/// Rows [bounds[s], bounds[s + 1]) as an index list.
std::vector<size_t> SegmentRows(const std::vector<size_t>& bounds, size_t s) {
  std::vector<size_t> rows;
  for (size_t r = bounds[s]; r < bounds[s + 1]; ++r) rows.push_back(r);
  return rows;
}

TEST(SimdTierTest, SegmentedAccumulatesMatchPerSegmentSinks) {
  // The batch-wide training contract: a segmented accumulate equals, bit
  // for bit, one one-segment accumulate per segment into a zeroed
  // temporary (a chunk's gradient on its own) followed by in-order Adds
  // (the chunk merge), in every tier.
  // Rows mix dense, all-zero and one-hot rows; segments include empty and
  // one-row ones.
  constexpr size_t kRows = 23;
  const std::vector<std::vector<size_t>> segmentations = {
      {0, kRows},
      {0, 0, 1, 1, 5, 6, 12, 12, 20, 23},
      {2, 9, 9, 10, 21},  // rows outside [2, 21) are ignored
      {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
       20, 21, 22, 23},
      {7},  // zero segments
  };
  for (KernelIsa isa : AvailableTiers()) {
    ScopedKernelIsa tier(isa);
    Rng rng(29);
    for (size_t m : {1, 3, 32, 64}) {
      for (size_t n : {1, 3, 32, 64}) {
        Matrix a = RandomMatrix(kRows, m, 0.3, &rng);
        Matrix b = RandomMatrix(kRows, n, 0.0, &rng);
        for (size_t r = 0; r < kRows; r += 4) {  // all-zero rows
          for (size_t c = 0; c < m; ++c) a.At(r, c) = 0.0;
        }
        for (size_t r = 1; r < kRows; r += 5) {  // one-hot rows
          for (size_t c = 0; c < m; ++c) a.At(r, c) = c == r % m ? 1.0 : 0.0;
        }
        for (const std::vector<size_t>& bounds : segmentations) {
          for (bool warm : {false, true}) {
            Matrix seed_w(m, n), seed_b(1, n);
            if (warm) {
              seed_w = RandomMatrix(m, n, 0.0, &rng);
              seed_b = RandomMatrix(1, n, 0.0, &rng);
            }
            Matrix want_w = seed_w, want_b = seed_b;
            Matrix ref_w = seed_w, ref_b = seed_b;
            for (size_t s = 0; s + 1 < bounds.size(); ++s) {
              const std::vector<size_t> rows = SegmentRows(bounds, s);
              const Matrix seg_a = a.SelectRows(rows);
              const Matrix seg_b = b.SelectRows(rows);
              const std::vector<size_t> whole = {0, rows.size()};
              Matrix part_w(m, n), part_b(1, n);
              kernels::GemmATAccumulateSegments(seg_a, seg_b, whole, &part_w);
              kernels::ColSumAccumulateSegments(seg_b, whole, &part_b);
              want_w.Add(part_w);
              want_b.Add(part_b);
              Matrix ref_part_w(m, n), ref_part_b(1, n);
              kernels::reference::GemmATAccumulate(seg_a, seg_b, &ref_part_w);
              kernels::reference::ColSumAccumulate(seg_b, &ref_part_b);
              ref_w.Add(ref_part_w);
              ref_b.Add(ref_part_b);
            }
            if (isa == KernelIsa::kScalar) {
              // The per-segment parts are the reference loops' own bits.
              ExpectBitEqual(ref_w, want_w, "reference segment parts");
              ExpectBitEqual(ref_b, want_b, "reference colsum parts");
            }
            Matrix got_w = seed_w, got_b = seed_b;
            kernels::GemmATAccumulateSegments(a, b, bounds, &got_w);
            kernels::ColSumAccumulateSegments(b, bounds, &got_b);
            ExpectBitEqual(want_w, got_w, "segmented GemmATAccumulate");
            ExpectBitEqual(want_b, got_b, "segmented ColSumAccumulate");
            // Split by output rows (how the gradient phase balances its
            // tasks): the same bits.
            Matrix split_w = seed_w;
            const size_t cut = m / 2;
            kernels::GemmATAccumulateSegments(a, b, bounds, &split_w, 0, cut);
            kernels::GemmATAccumulateSegments(a, b, bounds, &split_w, cut, m);
            ExpectBitEqual(want_w, split_w, "row-split segmented accumulate");
          }
        }
      }
    }
  }
}

TEST(SimdTierTest, IsaStateClampsAndReportsNames) {
  // An unavailable pin clamps to the scalar tier instead of crashing in a
  // missing table.
  const KernelIsa saved = kernels::GetKernelIsa();
  kernels::SetKernelIsa(KernelIsa::kAvx2);
  EXPECT_EQ(kernels::GetKernelIsa(),
            kernels::KernelIsaAvailable(KernelIsa::kAvx2) ? KernelIsa::kAvx2
                                                          : KernelIsa::kScalar);
  kernels::SetKernelIsa(saved);
  EXPECT_TRUE(kernels::KernelIsaAvailable(KernelIsa::kScalar));
  EXPECT_TRUE(kernels::KernelIsaAvailable(kernels::DetectKernelIsa()));
  EXPECT_STREQ(kernels::KernelIsaName(KernelIsa::kScalar), "scalar");
  EXPECT_STREQ(kernels::KernelIsaName(KernelIsa::kAvx2), "avx2");
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

// ------------------------------------------------------- dispatch probe

/// The dispatch probe's historical walk: a divide and a modulo per probe.
double ZeroFractionByDivision(const Matrix& m) {
  const size_t cols = m.cols();
  const size_t n = m.rows() * cols;
  if (n == 0) return 0.0;
  const size_t stride = n > 256 ? n / 256 : 1;
  size_t zeros = 0;
  size_t probes = 0;
  for (size_t i = 0; i < n; i += stride) {
    zeros += m.At(i / cols, i % cols) == 0.0 ? 1 : 0;
    ++probes;
  }
  return static_cast<double>(zeros) / static_cast<double>(probes);
}

TEST(KernelDispatchTest, ZeroFractionWalkMatchesDivisionWalk) {
  // The running (row, col) walk must visit exactly the probes the
  // divide-and-modulo walk did, so the fraction (and every dispatch) is
  // unchanged: stride 1 (<= 256 elements), strides below the row width,
  // equal to it, and above it (several rows per step, with carries).
  struct Shape {
    size_t rows, cols;
  };
  const Shape shapes[] = {
      {0, 5},    {1, 1},   {1, 46},   {16, 16},  {3, 1000}, {2, 4099},
      {257, 1},  {512, 1}, {500, 3},  {1000, 7}, {64, 152}, {33, 66},
      {100, 37}, {7, 131}, {300, 11}, {1024, 1}, {513, 2},  {40, 12},
      {256, 2},  {128, 8},
  };
  Rng rng(27);
  for (const Shape& sh : shapes) {
    for (double sparsity : {0.0, 0.3, 0.9}) {
      Matrix m = RandomMatrix(sh.rows, sh.cols, sparsity, &rng);
      EXPECT_EQ(kernels::ZeroFraction(m), ZeroFractionByDivision(m))
          << sh.rows << " x " << sh.cols << " sparsity " << sparsity;
    }
  }
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
