/// Tests for src/models: the PG baseline, QPPNet and MSCN learn on a real
/// workload corpus; predictions beat trivial baselines; warm-start training,
/// convergence traces and operator views behave.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>

#include "models/cost_model.h"
#include "models/mscn.h"
#include "models/pg_cost_model.h"
#include "models/qppnet.h"
#include "nn/kernels.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "util/stats.h"
#include "workload/benchmark.h"
#include "workload/collector.h"

namespace qcfe {
namespace {

/// Shared corpus: sysbench at a small scale, 3 environments, 360 queries.
class ModelsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto bench = MakeBenchmark("sysbench");
    db_ = (*bench)->BuildDatabase(0.05, 31).release();
    envs_ = new std::vector<Environment>(
        EnvironmentSampler::Sample(3, HardwareProfile::H1(), 41));
    QueryCollector collector(db_, envs_);
    auto set = collector.Collect((*bench)->Templates(), 360, 51);
    ASSERT_TRUE(set.ok());
    corpus_ = new LabeledQuerySet(std::move(set.value()));
    featurizer_ = new BaseFeaturizer(db_->catalog());

    auto split = SplitIndices(corpus_->queries.size(), 0.8, 61);
    train_ = new std::vector<PlanSample>();
    test_ = new std::vector<PlanSample>();
    for (size_t i : split.train) train_->push_back(Sample(i));
    for (size_t i : split.test) test_->push_back(Sample(i));
  }

  static PlanSample Sample(size_t i) {
    const LabeledQuery& q = corpus_->queries[i];
    return PlanSample{q.plan.get(), q.env_id, q.total_ms};
  }

  static MetricSummary Evaluate(const CostModel& model,
                                const std::vector<PlanSample>& samples) {
    std::vector<double> actual, predicted;
    for (const auto& s : samples) {
      auto p = model.PredictMs(*s.plan, s.env_id);
      EXPECT_TRUE(p.ok()) << p.status().ToString();
      actual.push_back(s.label_ms);
      predicted.push_back(p.ok() ? *p : 0.0);
    }
    return Summarize(actual, predicted);
  }

  static Database* db_;
  static std::vector<Environment>* envs_;
  static LabeledQuerySet* corpus_;
  static BaseFeaturizer* featurizer_;
  static std::vector<PlanSample>* train_;
  static std::vector<PlanSample>* test_;
};

Database* ModelsTest::db_ = nullptr;
std::vector<Environment>* ModelsTest::envs_ = nullptr;
LabeledQuerySet* ModelsTest::corpus_ = nullptr;
BaseFeaturizer* ModelsTest::featurizer_ = nullptr;
std::vector<PlanSample>* ModelsTest::train_ = nullptr;
std::vector<PlanSample>* ModelsTest::test_ = nullptr;

TEST_F(ModelsTest, PgBaselinePredictsWithoutTraining) {
  PgCostModel pg;
  TrainStats stats;
  ASSERT_TRUE(pg.Train(*train_, TrainConfig{}, &stats).ok());
  EXPECT_EQ(stats.train_seconds, 0.0);
  MetricSummary m = Evaluate(pg, *test_);
  // Environment-oblivious analytical estimate: finite but coarse.
  EXPECT_GT(m.mean_qerror, 1.0);
  EXPECT_EQ(m.count, test_->size());
  EXPECT_EQ(pg.featurizer(), nullptr);
  EXPECT_FALSE(pg.OperatorView(OpType::kSeqScan, {}).ok());
}

TEST_F(ModelsTest, QppNetLearnsTheWorkload) {
  QppNet model(featurizer_, QppNetConfig{}, 71);
  EXPECT_FALSE(model.PredictMs(*(*test_)[0].plan, 0).ok());  // untrained
  TrainConfig cfg;
  cfg.epochs = 40;
  cfg.batch_size = 32;
  cfg.seed = 5;
  TrainStats stats;
  ASSERT_TRUE(model.Train(*train_, cfg, &stats).ok());
  EXPECT_GT(stats.train_seconds, 0.0);
  ASSERT_EQ(stats.loss_curve.size(), 40u);
  // Loss decreases substantially from the first epochs.
  EXPECT_LT(stats.loss_curve.back(), 0.5 * stats.loss_curve.front());

  MetricSummary m = Evaluate(model, *test_);
  EXPECT_LT(m.mean_qerror, 5.0);
  EXPECT_GT(m.pearson, 0.5);

  // Learned model beats the analytical baseline on this corpus.
  PgCostModel pg;
  MetricSummary pg_m = Evaluate(pg, *test_);
  EXPECT_LT(m.mean_qerror, pg_m.mean_qerror);
}

TEST_F(ModelsTest, QppNetWarmStartImproves) {
  QppNet model(featurizer_, QppNetConfig{}, 73);
  TrainConfig cfg;
  cfg.epochs = 8;
  cfg.seed = 5;
  TrainStats first;
  ASSERT_TRUE(model.Train(*train_, cfg, &first).ok());
  MetricSummary before = Evaluate(model, *test_);
  TrainStats second;
  cfg.epochs = 30;
  ASSERT_TRUE(model.Train(*train_, cfg, &second).ok());
  MetricSummary after = Evaluate(model, *test_);
  // Warm-started continuation must not be worse by much and typically helps.
  EXPECT_LT(after.mean_qerror, before.mean_qerror * 1.2);
  EXPECT_LT(second.loss_curve.back(), first.loss_curve.front());
}

TEST_F(ModelsTest, QppNetEvalCurveRecordsConvergence) {
  QppNet model(featurizer_, QppNetConfig{}, 75);
  TrainConfig cfg;
  cfg.epochs = 12;
  cfg.eval_every = 4;
  cfg.eval_set = *test_;
  TrainStats stats;
  ASSERT_TRUE(model.Train(*train_, cfg, &stats).ok());
  ASSERT_EQ(stats.eval_curve.size(), 3u);
  EXPECT_EQ(stats.eval_curve[0].first, 4);
  EXPECT_EQ(stats.eval_curve[2].first, 12);
  for (const auto& [epoch, qe] : stats.eval_curve) EXPECT_GE(qe, 1.0);
}

TEST_F(ModelsTest, QppNetDeterministicGivenSeeds) {
  QppNet a(featurizer_, QppNetConfig{}, 77);
  QppNet b(featurizer_, QppNetConfig{}, 77);
  TrainConfig cfg;
  cfg.epochs = 6;
  cfg.seed = 9;
  ASSERT_TRUE(a.Train(*train_, cfg, nullptr).ok());
  ASSERT_TRUE(b.Train(*train_, cfg, nullptr).ok());
  auto pa = a.PredictMs(*(*test_)[0].plan, (*test_)[0].env_id);
  auto pb = b.PredictMs(*(*test_)[0].plan, (*test_)[0].env_id);
  ASSERT_TRUE(pa.ok() && pb.ok());
  EXPECT_DOUBLE_EQ(*pa, *pb);
}

TEST_F(ModelsTest, QppNetOperatorViewMatchesSingleNodePlans) {
  QppNet model(featurizer_, QppNetConfig{}, 79);
  TrainConfig cfg;
  cfg.epochs = 15;
  ASSERT_TRUE(model.Train(*train_, cfg, nullptr).ok());

  // Context restricted to single-node plans of the target type so the mean
  // child context is exactly zero (leaf operators have no children).
  std::vector<PlanSample> leaf_context;
  for (const auto& s : *train_) {
    if (s.plan->CountNodes() == 1 && s.plan->op == OpType::kIndexScan) {
      leaf_context.push_back(s);
    }
  }
  ASSERT_FALSE(leaf_context.empty());
  auto view = model.OperatorView(OpType::kIndexScan, leaf_context);
  ASSERT_TRUE(view.ok()) << view.status().ToString();

  for (size_t i = 0; i < std::min<size_t>(leaf_context.size(), 5); ++i) {
    const PlanSample& s = leaf_context[i];
    std::vector<double> raw = featurizer_->Encode(*s.plan, 0, s.env_id);
    Matrix x(1, raw.size());
    x.SetRow(0, raw);
    double view_scaled = view->Predict(x).At(0, 0);
    double model_ms = *model.PredictMs(*s.plan, s.env_id);
    double model_scaled = model.label_scaler()->TransformOne(model_ms);
    EXPECT_NEAR(view_scaled, model_scaled, 1e-6);
  }
}

TEST_F(ModelsTest, MscnLearnsTheWorkload) {
  Mscn model(db_->catalog(), featurizer_, MscnConfig{}, 81);
  EXPECT_FALSE(model.PredictMs(*(*test_)[0].plan, 0).ok());  // untrained
  TrainConfig cfg;
  cfg.epochs = 60;
  cfg.batch_size = 32;
  TrainStats stats;
  ASSERT_TRUE(model.Train(*train_, cfg, &stats).ok());
  EXPECT_GT(stats.train_seconds, 0.0);
  EXPECT_LT(stats.loss_curve.back(), stats.loss_curve.front());
  MetricSummary m = Evaluate(model, *test_);
  EXPECT_LT(m.mean_qerror, 5.0);
  EXPECT_GT(m.pearson, 0.5);
}

TEST_F(ModelsTest, MscnOperatorViewRespondsToFeatures) {
  Mscn model(db_->catalog(), featurizer_, MscnConfig{}, 83);
  TrainConfig cfg;
  cfg.epochs = 20;
  ASSERT_TRUE(model.Train(*train_, cfg, nullptr).ok());
  std::vector<PlanSample> ctx(train_->begin(),
                              train_->begin() + std::min<size_t>(20, train_->size()));
  auto view = model.OperatorView(OpType::kSeqScan, ctx);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view->in_dim(), model.op_dim());
  EXPECT_EQ(view->out_dim(), 1u);

  // The view must produce finite output and depend on cardinality features.
  std::vector<double> raw =
      featurizer_->Encode(*(*train_)[0].plan, 0, (*train_)[0].env_id);
  Matrix x(1, raw.size());
  x.SetRow(0, raw);
  double y0 = view->Predict(x).At(0, 0);
  EXPECT_TRUE(std::isfinite(y0));
}

/// CRC-32 over the logical elements of every parameter matrix, in order.
uint32_t ParamsCrc(const std::vector<Matrix*>& params) {
  std::vector<double> flat;
  for (const Matrix* p : params) {
    for (size_t r = 0; r < p->rows(); ++r) {
      flat.insert(flat.end(), p->RowPtr(r), p->RowPtr(r) + p->cols());
    }
  }
  return Crc32(flat.data(), flat.size() * sizeof(double));
}

TEST_F(ModelsTest, MscnAvx2TrainedParametersArePinned) {
  // The AVX2 tier builds every contraction as a fused-multiply-add chain,
  // so its trained bits differ from the scalar tier's (which the golden
  // artifact in persist_test pins). This pin holds the fused tier to its
  // own bits: any change to how training sums gradients, at any thread
  // count, moves the hash. Captured once; never regenerate it.
  if (!kernels::KernelIsaAvailable(kernels::KernelIsa::kAvx2)) {
    GTEST_SKIP() << "AVX2 tier not available on this machine/build";
  }
  kernels::ScopedKernelIsa tier(kernels::KernelIsa::kAvx2);
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    Mscn model(db_->catalog(), featurizer_, MscnConfig{}, 87);
    model.set_thread_pool(threads > 1 ? &pool : nullptr);
    TrainConfig cfg;
    cfg.epochs = 5;
    ASSERT_TRUE(model.Train(*train_, cfg, nullptr).ok());
    const uint32_t crc = ParamsCrc(model.Params());
    char hex[16];
    std::snprintf(hex, sizeof(hex), "0x%08X", crc);
    EXPECT_EQ(crc, 0xC3A82E04u) << "threads " << threads << ": got " << hex;
  }
}

TEST_F(ModelsTest, QppNetAvx2TrainedParametersArePinned) {
  // QPPNet's counterpart of the MSCN pin above: per-node rows packed per
  // unit and summed one fused chain per chunk, chunks added in chunk order,
  // held to the AVX2 tier's bits at one and four threads. Captured from an
  // independent oracle (the per-chunk accumulators of the previous design
  // with each one-row update fused into the chain), so any change to the
  // chunk segmentation or row order moves it; never regenerate it.
  if (!kernels::KernelIsaAvailable(kernels::KernelIsa::kAvx2)) {
    GTEST_SKIP() << "AVX2 tier not available on this machine/build";
  }
  kernels::ScopedKernelIsa tier(kernels::KernelIsa::kAvx2);
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    QppNet model(featurizer_, QppNetConfig{}, 87);
    model.set_thread_pool(threads > 1 ? &pool : nullptr);
    TrainConfig cfg;
    cfg.epochs = 5;
    ASSERT_TRUE(model.Train(*train_, cfg, nullptr).ok());
    const uint32_t crc = ParamsCrc(model.Params());
    char hex[16];
    std::snprintf(hex, sizeof(hex), "0x%08X", crc);
    EXPECT_EQ(crc, 0x16C0B1BAu) << "threads " << threads << ": got " << hex;
  }
}

TEST_F(ModelsTest, SubtreeLatencySumsOperatorLatencies) {
  const PlanNode* plan = (*train_)[0].plan;
  double total = 0.0;
  plan->VisitConst([&](const PlanNode* n) { total += n->actual_ms; });
  EXPECT_DOUBLE_EQ(SubtreeLatencyMs(*plan), total);
}

}  // namespace
}  // namespace qcfe
