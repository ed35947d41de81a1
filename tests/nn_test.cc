/// Unit tests for src/nn: matrix algebra, layer forward/backward consistency
/// against numerical gradients, MLP training convergence, optimizers, least
/// squares, scalers, serialization and input shrinking. The optimizer
/// suite also pins the pool-parallel gradient phase (chunk-segmented
/// parameter gradients) and Step to their serial loops, bit for bit.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "nn/layers.h"
#include "nn/linalg.h"
#include "nn/matrix.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "nn/scaler.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace qcfe {
namespace {

/// Adds the parameter gradients of the Backward() recorded on `tape`, one
/// segment over all its rows, into net->Grads().
void AddParamGrads(Mlp* net, const Mlp::Tape& tape) {
  const std::vector<size_t> whole = {0, tape.activations.front().rows()};
  std::vector<Matrix*> grads = net->Grads();
  for (size_t s = 0; s < grads.size(); ++s) {
    net->AddParamGrad(s, tape, whole, grads[s]);
  }
}

TEST(MatrixTest, MatMulKnownValues) {
  Matrix a(2, 3, {1, 2, 3, 4, 5, 6});
  Matrix b(3, 2, {7, 8, 9, 10, 11, 12});
  Matrix c = Matrix::MatMul(a, b);
  ASSERT_EQ(c.rows(), 2u);
  ASSERT_EQ(c.cols(), 2u);
  EXPECT_DOUBLE_EQ(c.At(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c.At(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c.At(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c.At(1, 1), 154.0);
}

TEST(MatrixTest, MatMulBTMatchesExplicitTranspose) {
  Rng rng(5);
  Matrix a(4, 3), b(5, 3);
  a.RandomizeGaussian(&rng, 1.0);
  b.RandomizeGaussian(&rng, 1.0);
  Matrix direct = Matrix::MatMulBT(a, b);
  Matrix expect = Matrix::MatMul(a, b.Transposed());
  ASSERT_EQ(direct.rows(), expect.rows());
  for (size_t i = 0; i < direct.data().size(); ++i) {
    EXPECT_NEAR(direct.data()[i], expect.data()[i], 1e-12);
  }
}

TEST(MatrixTest, MatMulATMatchesExplicitTranspose) {
  Rng rng(6);
  Matrix a(4, 3), b(4, 5);
  a.RandomizeGaussian(&rng, 1.0);
  b.RandomizeGaussian(&rng, 1.0);
  Matrix direct = Matrix::MatMulAT(a, b);
  Matrix expect = Matrix::MatMul(a.Transposed(), b);
  for (size_t i = 0; i < direct.data().size(); ++i) {
    EXPECT_NEAR(direct.data()[i], expect.data()[i], 1e-12);
  }
}

TEST(MatrixTest, SelectRowsAndCols) {
  Matrix m(3, 3, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  Matrix r = m.SelectRows({2, 0});
  EXPECT_DOUBLE_EQ(r.At(0, 0), 7.0);
  EXPECT_DOUBLE_EQ(r.At(1, 2), 3.0);
  Matrix c = m.SelectCols({1});
  ASSERT_EQ(c.cols(), 1u);
  EXPECT_DOUBLE_EQ(c.At(2, 0), 8.0);
}

TEST(MatrixTest, BroadcastAndColumnOps) {
  Matrix m(2, 2, {1, 2, 3, 4});
  Matrix row(1, 2, {10, 20});
  m.AddRowBroadcast(row);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 11.0);
  EXPECT_DOUBLE_EQ(m.At(1, 1), 24.0);
  Matrix s = m.ColSum();
  EXPECT_DOUBLE_EQ(s.At(0, 0), 24.0);
  Matrix mean = m.ColMean();
  EXPECT_DOUBLE_EQ(mean.At(0, 1), 23.0);
}

TEST(MatrixTest, RowAccessors) {
  Matrix m(2, 3, {1, 2, 3, 4, 5, 6});
  auto row = m.Row(1);
  EXPECT_EQ(row, (std::vector<double>{4, 5, 6}));
  m.SetRow(0, {9, 9, 9});
  EXPECT_DOUBLE_EQ(m.At(0, 2), 9.0);
}

// Numerical gradient check helper: compares analytic input gradient of
// f(x) = sum(first output channel) with central differences.
void CheckInputGradient(Mlp* net, const Matrix& x, double tol) {
  Matrix analytic = net->InputGradient(x);
  const double eps = 1e-5;
  for (size_t r = 0; r < x.rows(); ++r) {
    for (size_t c = 0; c < x.cols(); ++c) {
      Matrix xp = x, xm = x;
      xp.At(r, c) += eps;
      xm.At(r, c) -= eps;
      double fp = net->Predict(xp).At(r, 0);
      double fm = net->Predict(xm).At(r, 0);
      double numeric = (fp - fm) / (2 * eps);
      EXPECT_NEAR(analytic.At(r, c), numeric, tol)
          << "at (" << r << "," << c << ")";
    }
  }
}

TEST(MlpTest, InputGradientMatchesNumericalTanh) {
  Rng rng(42);
  Mlp net({4, 8, 1}, Activation::kTanh, &rng);
  Matrix x(3, 4);
  x.RandomizeGaussian(&rng, 1.0);
  CheckInputGradient(&net, x, 1e-6);
}

TEST(MlpTest, InputGradientMatchesNumericalSigmoid) {
  Rng rng(43);
  Mlp net({5, 6, 6, 1}, Activation::kSigmoid, &rng);
  Matrix x(2, 5);
  x.RandomizeGaussian(&rng, 1.0);
  CheckInputGradient(&net, x, 1e-6);
}

TEST(MlpTest, InputGradientMatchesNumericalRelu) {
  Rng rng(44);
  Mlp net({4, 8, 1}, Activation::kRelu, &rng);
  // Keep inputs away from ReLU kinks for a clean finite-difference check.
  Matrix x(3, 4);
  x.RandomizeGaussian(&rng, 2.0);
  CheckInputGradient(&net, x, 1e-5);
}

TEST(MlpTest, WeightGradientMatchesNumerical) {
  Rng rng(45);
  Mlp net({3, 4, 1}, Activation::kTanh, &rng);
  Matrix x(5, 3);
  x.RandomizeGaussian(&rng, 1.0);
  std::vector<double> y{1, 2, 3, 4, 5};

  // Analytic: dL/dW for L = 0.5 * sum((out - y)^2), via a tape and the
  // tape's parameter gradients.
  Mlp::Tape tape;
  Matrix out = net.Forward(x, &tape);
  Matrix grad(out.rows(), out.cols());
  for (size_t r = 0; r < out.rows(); ++r) grad.At(r, 0) = out.At(r, 0) - y[r];
  net.Backward(grad, &tape);
  AddParamGrads(&net, tape);
  const std::vector<Matrix*> analytic = net.Grads();

  auto loss = [&]() {
    Matrix o = net.Predict(x);
    double acc = 0.0;
    for (size_t r = 0; r < o.rows(); ++r) {
      acc += 0.5 * (o.At(r, 0) - y[r]) * (o.At(r, 0) - y[r]);
    }
    return acc;
  };

  auto params = net.Params();
  const double eps = 1e-6;
  for (size_t p = 0; p < params.size(); ++p) {
    for (size_t k = 0; k < std::min<size_t>(params[p]->size(), 6); ++k) {
      double save = params[p]->data()[k];
      params[p]->data()[k] = save + eps;
      double lp = loss();
      params[p]->data()[k] = save - eps;
      double lm = loss();
      params[p]->data()[k] = save;
      EXPECT_NEAR(analytic[p]->data()[k], (lp - lm) / (2 * eps), 1e-4);
    }
  }
}

TEST(MlpTest, LearnsLinearFunction) {
  Rng rng(46);
  Mlp net({2, 16, 1}, Activation::kRelu, &rng);
  AdamOptimizer opt(net.Params(), net.Grads(), 0.01);
  Matrix x(64, 2);
  x.RandomizeGaussian(&rng, 1.0);
  std::vector<double> y(64);
  for (size_t i = 0; i < 64; ++i) y[i] = 3.0 * x.At(i, 0) - 2.0 * x.At(i, 1) + 1.0;

  Mlp::Tape tape;
  double last = 1e18;
  for (int epoch = 0; epoch < 400; ++epoch) {
    opt.ZeroGrad();
    Matrix out = net.Forward(x, &tape);
    Matrix grad(out.rows(), 1);
    double loss = 0.0;
    for (size_t r = 0; r < out.rows(); ++r) {
      double d = out.At(r, 0) - y[r];
      loss += d * d;
      grad.At(r, 0) = 2.0 * d / static_cast<double>(out.rows());
    }
    net.Backward(grad, &tape);
    AddParamGrads(&net, tape);
    ASSERT_TRUE(opt.Step().ok());
    last = loss / 64.0;
  }
  EXPECT_LT(last, 0.05);
}

TEST(MlpTest, TapeRecordsAllLayerInputs) {
  Rng rng(47);
  Mlp net({3, 5, 2}, Activation::kRelu, &rng);
  Matrix x(4, 3);
  x.RandomizeGaussian(&rng, 1.0);
  Mlp::Tape tape;
  Matrix out = net.Forward(x, &tape);
  // layers: Linear, ReLU, Linear -> 3 inputs + 1 output = 4 records.
  ASSERT_EQ(tape.activations.size(), net.num_layers() + 1);
  EXPECT_EQ(tape.activations.front().cols(), 3u);
  EXPECT_EQ(tape.activations.back().cols(), 2u);
  for (size_t i = 0; i < out.data().size(); ++i) {
    EXPECT_DOUBLE_EQ(out.data()[i], tape.activations.back().data()[i]);
  }
  // Predict must agree with the taped forward.
  Matrix p = net.Predict(x);
  for (size_t i = 0; i < out.data().size(); ++i) {
    EXPECT_DOUBLE_EQ(out.data()[i], p.data()[i]);
  }
}

TEST(MlpTest, InputGradientLeavesAccumulatedGradsUntouched) {
  // Regression for the documented InputGradient contract: the probe must
  // not disturb optimizer-bound parameter grads. Tape-based backprop never
  // writes them at all, so the comparison is byte-for-byte, not
  // approximate.
  Rng rng(54);
  Mlp net({3, 8, 1}, Activation::kRelu, &rng);
  Matrix x(6, 3);
  x.RandomizeGaussian(&rng, 1.0);

  // Accumulate some nonzero parameter grads first.
  Mlp::Tape tape;
  Matrix out = net.Forward(x, &tape);
  Matrix grad(out.rows(), 1);
  for (size_t r = 0; r < out.rows(); ++r) grad.At(r, 0) = 1.0 + out.At(r, 0);
  net.Backward(grad, &tape);
  AddParamGrads(&net, tape);

  std::vector<Matrix> before;
  for (Matrix* g : net.Grads()) before.push_back(*g);
  ASSERT_GT(before[0].Norm(), 0.0);

  Matrix probe = net.InputGradient(x);
  ASSERT_EQ(probe.rows(), x.rows());

  std::vector<Matrix*> after = net.Grads();
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < after.size(); ++i) {
    ASSERT_EQ(after[i]->data().size(), before[i].data().size());
    EXPECT_EQ(0, std::memcmp(after[i]->data().data(), before[i].data().data(),
                             before[i].data().size() * sizeof(double)))
        << "grad matrix " << i << " changed";
  }
}

TEST(MlpTest, SaveLoadRoundTrip) {
  Rng rng(48);
  Mlp net({4, 8, 2}, Activation::kRelu, &rng);
  Matrix x(3, 4);
  x.RandomizeGaussian(&rng, 1.0);
  Matrix before = net.Predict(x);

  std::stringstream ss;
  ASSERT_TRUE(net.Save(ss).ok());
  Mlp loaded;
  ASSERT_TRUE(loaded.Load(ss).ok());
  Matrix after = loaded.Predict(x);
  ASSERT_EQ(before.data().size(), after.data().size());
  for (size_t i = 0; i < before.data().size(); ++i) {
    EXPECT_NEAR(before.data()[i], after.data()[i], 1e-9);
  }
}

TEST(MlpTest, CloneIsIndependent) {
  Rng rng(49);
  Mlp net({2, 4, 1}, Activation::kRelu, &rng);
  Mlp copy = net.Clone();
  Matrix x(1, 2, {1.0, -1.0});
  EXPECT_DOUBLE_EQ(net.Predict(x).At(0, 0), copy.Predict(x).At(0, 0));
  // Mutate the original; the clone must not move.
  net.Params()[0]->data()[0] += 1.0;
  EXPECT_NE(net.Predict(x).At(0, 0), copy.Predict(x).At(0, 0));
}

TEST(MlpTest, ShrinkInputsKeepsSelectedColumnsBehaviour) {
  Rng rng(50);
  Mlp net({3, 6, 1}, Activation::kRelu, &rng);
  // If we only keep columns {0, 2}, predictions on inputs whose dropped
  // column was zero must be identical.
  Matrix x(4, 3);
  x.RandomizeGaussian(&rng, 1.0);
  for (size_t r = 0; r < 4; ++r) x.At(r, 1) = 0.0;
  Matrix before = net.Predict(x);
  ASSERT_TRUE(net.ShrinkInputs({0, 2}).ok());
  EXPECT_EQ(net.in_dim(), 2u);
  Matrix xs = x.SelectCols({0, 2});
  Matrix after = net.Predict(xs);
  for (size_t r = 0; r < 4; ++r) {
    EXPECT_NEAR(before.At(r, 0), after.At(r, 0), 1e-12);
  }
}

TEST(MlpTest, ShrinkInputsRejectsBadColumn) {
  Rng rng(51);
  Mlp net({3, 4, 1}, Activation::kRelu, &rng);
  EXPECT_FALSE(net.ShrinkInputs({0, 9}).ok());
}

TEST(OptimizerTest, SgdReducesQuadratic) {
  // Minimise f(w) = (w - 3)^2 with SGD.
  Matrix w(1, 1, {0.0});
  Matrix g(1, 1);
  SgdOptimizer opt({&w}, {&g}, 0.1, 0.9);
  for (int i = 0; i < 200; ++i) {
    g.At(0, 0) = 2.0 * (w.At(0, 0) - 3.0);
    ASSERT_TRUE(opt.Step().ok());
  }
  EXPECT_NEAR(w.At(0, 0), 3.0, 1e-3);
}

TEST(OptimizerTest, AdamReducesQuadratic) {
  Matrix w(1, 2, {5.0, -5.0});
  Matrix g(1, 2);
  AdamOptimizer opt({&w}, {&g}, 0.05);
  for (int i = 0; i < 2000; ++i) {
    g.At(0, 0) = 2.0 * (w.At(0, 0) - 1.0);
    g.At(0, 1) = 2.0 * (w.At(0, 1) + 2.0);
    ASSERT_TRUE(opt.Step().ok());
  }
  EXPECT_NEAR(w.At(0, 0), 1.0, 1e-2);
  EXPECT_NEAR(w.At(0, 1), -2.0, 1e-2);
}

TEST(OptimizerTest, ZeroGradClearsAll) {
  Matrix w(1, 1, {0.0});
  Matrix g(1, 1, {5.0});
  SgdOptimizer opt({&w}, {&g}, 0.1);
  opt.ZeroGrad();
  EXPECT_DOUBLE_EQ(g.At(0, 0), 0.0);
}

/// Odd slot shapes (none a multiple of the 8-double row padding), so the
/// per-slot pool work covers ragged rows and single elements.
std::vector<Matrix> OddSlots() {
  std::vector<Matrix> slots;
  for (auto [r, c] : std::vector<std::pair<size_t, size_t>>{
           {1, 1}, {3, 5}, {7, 9}, {1, 13}, {5, 3}, {2, 17}}) {
    slots.emplace_back(r, c);
  }
  return slots;
}

std::vector<Matrix*> Ptrs(std::vector<Matrix>* slots) {
  std::vector<Matrix*> out;
  for (Matrix& m : *slots) out.push_back(&m);
  return out;
}

bool SameBits(const std::vector<Matrix>& a, const std::vector<Matrix>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size() ||
        std::memcmp(a[i].data().data(), b[i].data().data(),
                    a[i].size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// Fills step `step`'s gradients; slots 1 and 4 stay all-zero throughout,
/// and slot 3 is all-zero on even steps.
void FillGrads(int step, std::vector<Matrix>* grads) {
  Rng rng(1000 + static_cast<uint64_t>(step));
  for (size_t s = 0; s < grads->size(); ++s) {
    Matrix& g = (*grads)[s];
    g.Fill(0.0);
    if (s == 1 || s == 4 || (s == 3 && step % 2 == 0)) continue;
    for (size_t r = 0; r < g.rows(); ++r) {
      for (size_t c = 0; c < g.cols(); ++c) {
        g.At(r, c) = rng.Gaussian(0.0, 1.0);
      }
    }
  }
}

template <typename MakeOpt>
void ExpectPoolStepMatchesSerial(MakeOpt make) {
  ThreadPool pool(4);
  Rng init(77);
  std::vector<Matrix> p_serial = OddSlots(), g_serial = OddSlots();
  for (Matrix& p : p_serial) p.RandomizeGaussian(&init, 1.0);
  std::vector<Matrix> p_pool = p_serial, g_pool = g_serial;
  auto serial = make(Ptrs(&p_serial), Ptrs(&g_serial));
  auto pooled = make(Ptrs(&p_pool), Ptrs(&g_pool));
  for (int step = 0; step < 6; ++step) {
    FillGrads(step, &g_serial);
    FillGrads(step, &g_pool);
    ASSERT_TRUE(serial->Step(nullptr).ok());
    ASSERT_TRUE(pooled->Step(&pool).ok());
    ASSERT_TRUE(SameBits(p_serial, p_pool)) << "params diverge at " << step;
    ASSERT_TRUE(SameBits(g_serial, g_pool)) << "grads diverge at " << step;
  }
}

TEST(OptimizerTest, AdamStepOnPoolIsBitIdenticalToSerial) {
  for (double clip : {0.0, 0.5, 1e6}) {
    SCOPED_TRACE(clip);
    auto make = [clip](std::vector<Matrix*> p, std::vector<Matrix*> g) {
      auto opt = std::make_unique<AdamOptimizer>(std::move(p), std::move(g),
                                                 1e-2);
      opt->set_clip_norm(clip);
      return opt;
    };
    ExpectPoolStepMatchesSerial(make);
  }
}

TEST(OptimizerTest, AdamClipsGradientsExactlyWhenNormExceedsClip) {
  // Far from the radius the per-slot sums decide; right at it only the
  // serial chain can: clip = norm is no clip, one part in 1e12 less is.
  std::vector<Matrix> g = OddSlots();
  FillGrads(1, &g);
  double norm_sq = 0.0;
  for (const Matrix& m : g) {
    for (double v : m.data()) norm_sq += v * v;
  }
  const double norm = std::sqrt(norm_sq);
  ThreadPool pool(4);
  for (auto [clip, clipped] : std::vector<std::pair<double, bool>>{
           {norm * 1e6, false},
           {norm, false},
           {norm * (1.0 + 1e-12), false},
           {norm * (1.0 - 1e-12), true},
           {norm * 0.05, true}}) {
    std::vector<Matrix> p = OddSlots(), grads = g;
    AdamOptimizer opt(Ptrs(&p), Ptrs(&grads), 1e-2);
    opt.set_clip_norm(clip);
    ASSERT_TRUE(opt.Step(&pool).ok());
    EXPECT_EQ(!SameBits(grads, g), clipped) << "clip " << clip;
  }
}

TEST(OptimizerTest, SgdStepOnPoolIsBitIdenticalToSerial) {
  ExpectPoolStepMatchesSerial([](std::vector<Matrix*> p,
                                  std::vector<Matrix*> g) {
    return std::make_unique<SgdOptimizer>(std::move(p), std::move(g), 0.05,
                                          0.9);
  });
}

TEST(OptimizerTest, AdamRejectsNonFiniteGradientNorm) {
  std::vector<Matrix> p = OddSlots(), g = OddSlots();
  FillGrads(1, &g);
  g[2].At(3, 4) = std::nan("");
  const std::vector<Matrix> before = p;
  AdamOptimizer opt(Ptrs(&p), Ptrs(&g), 1e-2);
  opt.set_clip_norm(5.0);
  Status st = opt.Step();
  EXPECT_EQ(st.code(), StatusCode::kNumericError);
  EXPECT_TRUE(SameBits(p, before));
}

TEST(OptimizerTest, SetGradsSumsChunkSegmentsInChunkOrder) {
  // Three units on packed tapes, five chunks. A chunk that reaches no row
  // of a unit is an empty segment of it, and unit 1 is reached by no chunk.
  constexpr size_t kChunks = 5;
  constexpr size_t kUnits = 3;
  const size_t rows_per[kChunks][kUnits] = {
      {2, 0, 3}, {0, 0, 1}, {4, 0, 0}, {1, 0, 2}, {0, 0, 5}};
  Rng rng(91);
  std::vector<Mlp> units;
  std::vector<Mlp::Tape> tapes(kUnits);
  std::vector<std::vector<size_t>> bounds(kUnits, std::vector<size_t>{0});
  for (size_t u = 0; u < kUnits; ++u) {
    // Odd widths: no operand is a multiple of the 8-double row padding.
    units.emplace_back(std::vector<size_t>{5 + u, 9, 3}, Activation::kRelu,
                       &rng);
    for (size_t c = 0; c < kChunks; ++c) {
      bounds[u].push_back(bounds[u].back() + rows_per[c][u]);
    }
    // The packed operands AddParamGrad reads, filled with random values.
    units[u].ShapeParamRows(bounds[u].back(), &tapes[u]);
    for (std::vector<Matrix>* records :
         {&tapes[u].activations, &tapes[u].grads}) {
      for (Matrix& m : *records) {
        for (size_t r = 0; r < m.rows(); ++r) {
          for (size_t col = 0; col < m.cols(); ++col) {
            // Include negative zeros: 0 + (-0) is +0, a copy would be -0.
            m.At(r, col) = (r + col) % 4 == 0 ? -0.0 : rng.Gaussian(0.0, 3.0);
          }
        }
      }
    }
  }
  std::vector<Matrix*> params, grads;
  std::vector<std::pair<size_t, size_t>> slot_unit;  // (unit, unit slot)
  for (size_t u = 0; u < kUnits; ++u) {
    for (Matrix* p : units[u].Params()) params.push_back(p);
    const std::vector<Matrix*> unit_grads = units[u].Grads();
    for (size_t k = 0; k < unit_grads.size(); ++k) {
      slot_unit.emplace_back(u, k);
      grads.push_back(unit_grads[k]);
    }
  }

  // Reference: ZeroGrad, then each reaching chunk's gradient, built alone
  // in a zeroed temporary, added in chunk order.
  std::vector<Matrix> expected;
  for (size_t s = 0; s < grads.size(); ++s) {
    const auto [u, k] = slot_unit[s];
    Matrix want(grads[s]->rows(), grads[s]->cols());
    for (size_t c = 0; c < kChunks; ++c) {
      if (rows_per[c][u] == 0) continue;
      Matrix part(want.rows(), want.cols());
      units[u].AddParamGrad(k, tapes[u], {bounds[u][c], bounds[u][c + 1]},
                            &part);
      want.Add(part);
    }
    expected.push_back(want);
  }

  // Whole slots, plus the multi-row slots cut in two by rows.
  std::vector<Optimizer::GradBlock> blocks;
  for (size_t s = 0; s < grads.size(); ++s) {
    const size_t rows = grads[s]->rows();
    if (rows < 2) {
      blocks.push_back({s, 0, rows});
    } else {
      blocks.push_back({s, 0, rows / 2});
      blocks.push_back({s, rows / 2, rows});
    }
  }
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    for (Matrix* g : grads) g->Fill(7.0);  // stale values must not survive
    SgdOptimizer opt(params, grads, 0.1);
    std::vector<double> slot_sq;
    opt.SetGrads(
        blocks,
        [&](const Optimizer::GradBlock& block, Matrix* grad) {
          const auto [u, k] = slot_unit[block.slot];
          units[u].AddParamGrad(k, tapes[u], bounds[u], grad,
                                block.row_begin, block.row_end);
        },
        p, &slot_sq);
    std::vector<Matrix> got;
    for (Matrix* g : grads) got.push_back(*g);
    const char* where = p == nullptr ? "serial" : "pool";
    EXPECT_TRUE(SameBits(got, expected)) << where;
    for (size_t s = 0; s < got.size(); ++s) {
      for (double v : got[s].data()) {
        // No gradient element is -0, and unit 1's are all exactly +0.
        EXPECT_FALSE(v == 0.0 && std::signbit(v)) << where << " slot " << s;
        if (slot_unit[s].first == 1) {
          EXPECT_TRUE(v == 0.0 && !std::signbit(v)) << where << " slot " << s;
        }
      }
    }
    // The per-slot sums of squares agree with a plain loop up to rounding.
    ASSERT_EQ(slot_sq.size(), got.size());
    for (size_t k = 0; k < got.size(); ++k) {
      double sq = 0.0;
      for (double v : got[k].data()) sq += v * v;
      EXPECT_NEAR(slot_sq[k], sq, 1e-12 * sq) << "slot " << k;
    }
  }
}

TEST(LinalgTest, CholeskySolveKnownSystem) {
  Matrix a(2, 2, {4, 2, 2, 3});
  std::vector<double> x;
  ASSERT_TRUE(CholeskySolve(a, {8, 7}, &x).ok());
  EXPECT_NEAR(x[0], 1.25, 1e-12);
  EXPECT_NEAR(x[1], 1.5, 1e-12);
}

TEST(LinalgTest, CholeskyRejectsNonSpd) {
  Matrix a(2, 2, {0, 0, 0, 0});
  std::vector<double> x;
  EXPECT_FALSE(CholeskySolve(a, {1, 1}, &x).ok());
}

TEST(LinalgTest, LeastSquaresRecoversExactLine) {
  // y = 2 n + 5 observed without noise -> coefficients recovered exactly.
  Matrix a(4, 2, {1, 1, 2, 1, 3, 1, 4, 1});
  auto r = LeastSquares(a, {7, 9, 11, 13});
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value()[0], 2.0, 1e-9);
  EXPECT_NEAR(r.value()[1], 5.0, 1e-9);
}

TEST(LinalgTest, LeastSquaresNoisyRecovery) {
  Rng rng(52);
  size_t m = 200;
  Matrix a(m, 2);
  std::vector<double> y(m);
  for (size_t i = 0; i < m; ++i) {
    double n = rng.Uniform(1, 1000);
    a.At(i, 0) = n;
    a.At(i, 1) = 1.0;
    y[i] = (0.02 * n + 1.5) * rng.LognormalNoise(0.05);
  }
  auto r = LeastSquares(a, y);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value()[0], 0.02, 0.005);
  EXPECT_NEAR(r.value()[1], 1.5, 1.0);
}

TEST(LinalgTest, LeastSquaresHandlesRankDeficiency) {
  // Two identical columns: ridge fallback must still produce finite output.
  Matrix a(3, 2, {1, 1, 2, 2, 3, 3});
  auto r = LeastSquares(a, {2, 4, 6});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(std::isfinite(r.value()[0]));
  EXPECT_TRUE(std::isfinite(r.value()[1]));
  // The fitted function should still predict well.
  EXPECT_NEAR(r.value()[0] * 2 + r.value()[1] * 2, 4.0, 0.01);
}

TEST(LinalgTest, LeastSquaresRejectsEmpty) {
  Matrix a;
  EXPECT_FALSE(LeastSquares(a, {}).ok());
}

TEST(LinalgTest, NnlsKeepsCoefficientsNonNegative) {
  // Data generated with a negative slope: NNLS must clamp at zero.
  Matrix a(4, 2, {1, 1, 2, 1, 3, 1, 4, 1});
  auto r = NonNegativeLeastSquares(a, {10, 8, 6, 4});
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r.value()[0], 0.0);
  EXPECT_GE(r.value()[1], 0.0);
}

TEST(LinalgTest, NnlsMatchesLsqWhenPositive) {
  Matrix a(4, 2, {1, 1, 2, 1, 3, 1, 4, 1});
  auto nn = NonNegativeLeastSquares(a, {7, 9, 11, 13});
  ASSERT_TRUE(nn.ok());
  EXPECT_NEAR(nn.value()[0], 2.0, 1e-4);
  EXPECT_NEAR(nn.value()[1], 5.0, 1e-3);
}

TEST(ScalerTest, StandardizesToZeroMeanUnitVar) {
  Rng rng(53);
  Matrix x(500, 3);
  for (size_t r = 0; r < x.rows(); ++r) {
    x.At(r, 0) = rng.Gaussian(10.0, 5.0);
    x.At(r, 1) = rng.Gaussian(-3.0, 0.5);
    x.At(r, 2) = 7.0;  // constant column
  }
  StandardScaler sc;
  Matrix t = sc.FitTransform(x);
  std::vector<double> c0(t.rows()), c2(t.rows());
  for (size_t r = 0; r < t.rows(); ++r) {
    c0[r] = t.At(r, 0);
    c2[r] = t.At(r, 2);
  }
  EXPECT_NEAR(Mean(c0), 0.0, 1e-9);
  EXPECT_NEAR(Stddev(c0), 1.0, 1e-9);
  // Constant column maps to exactly zero everywhere (not NaN).
  for (double v : c2) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(ScalerTest, ShrinkToSubsetsStatistics) {
  Matrix x(3, 3, {1, 10, 100, 2, 20, 200, 3, 30, 300});
  StandardScaler sc;
  sc.Fit(x);
  ASSERT_TRUE(sc.ShrinkTo({2, 0}).ok());
  EXPECT_EQ(sc.dims(), 2u);
  EXPECT_DOUBLE_EQ(sc.mean()[0], 200.0);
  EXPECT_DOUBLE_EQ(sc.mean()[1], 2.0);
  EXPECT_FALSE(sc.ShrinkTo({5}).ok());
}

TEST(ScalerTest, LogTargetRoundTrip) {
  std::vector<double> y{0.5, 10.0, 250.0, 9000.0};
  LogTargetScaler sc;
  sc.Fit(y);
  auto t = sc.Transform(y);
  auto back = sc.InverseTransform(t);
  for (size_t i = 0; i < y.size(); ++i) EXPECT_NEAR(back[i], y[i], 1e-6 * y[i] + 1e-9);
}

TEST(ScalerTest, LogTargetHandlesConstant) {
  LogTargetScaler sc;
  sc.Fit({5.0, 5.0, 5.0});
  EXPECT_NEAR(sc.InverseTransformOne(sc.TransformOne(5.0)), 5.0, 1e-9);
}

TEST(ScalerTest, ClampedPredictionsNeverGoNegative) {
  // Regression: the old clamp allowed `t_min - margin`, and for
  // sub-millisecond labels log1p(y) ~ y, so the margin crossed zero and
  // expm1 produced negative predicted latencies. The lower clamp now stops
  // at the smallest observed label.
  LogTargetScaler sc;
  sc.Fit({0.04, 0.05, 12.0});
  double lo = sc.InverseTransformOne(sc.ClampTransformed(-1e6));
  EXPECT_GE(lo, 0.0);
  EXPECT_NEAR(lo, 0.04, 1e-9);
  // Upward extrapolation keeps its log-space margin.
  double hi = sc.InverseTransformOne(sc.ClampTransformed(1e6));
  EXPECT_GT(hi, 12.0);
}

TEST(ScalerTest, SerializationRoundTrip) {
  Matrix x(3, 2, {1, 2, 3, 4, 5, 6});
  StandardScaler sc;
  sc.Fit(x);
  std::stringstream ss;
  ASSERT_TRUE(sc.Save(ss).ok());
  StandardScaler sc2;
  ASSERT_TRUE(sc2.Load(ss).ok());
  EXPECT_EQ(sc2.mean(), sc.mean());

  LogTargetScaler ls;
  ls.Fit({1.0, 2.0, 3.0});
  std::stringstream ss2;
  ASSERT_TRUE(ls.Save(ss2).ok());
  LogTargetScaler ls2;
  ASSERT_TRUE(ls2.Load(ss2).ok());
  EXPECT_DOUBLE_EQ(ls2.mean(), ls.mean());
  EXPECT_DOUBLE_EQ(ls2.stddev(), ls.stddev());
}

// Property-style sweep: input gradients match numerics across activations
// and widths.
struct GradCase {
  Activation act;
  size_t hidden;
};

class MlpGradSweep : public ::testing::TestWithParam<GradCase> {};

TEST_P(MlpGradSweep, InputGradientMatchesNumerical) {
  GradCase c = GetParam();
  Rng rng(1000 + static_cast<uint64_t>(c.hidden));
  Mlp net({3, c.hidden, 1}, c.act, &rng);
  Matrix x(2, 3);
  x.RandomizeGaussian(&rng, 1.5);
  CheckInputGradient(&net, x, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(
    Activations, MlpGradSweep,
    ::testing::Values(GradCase{Activation::kTanh, 4},
                      GradCase{Activation::kTanh, 16},
                      GradCase{Activation::kSigmoid, 8},
                      GradCase{Activation::kRelu, 8},
                      GradCase{Activation::kRelu, 32}));

}  // namespace
}  // namespace qcfe
