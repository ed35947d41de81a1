/// Tests for src/models: the PG baseline, QPPNet and MSCN learn on a real
/// workload corpus; predictions beat trivial baselines; warm-start training,
/// convergence traces and operator views behave.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "core/feature_reduction.h"
#include "harness/context.h"
#include "models/cost_model.h"
#include "models/mscn.h"
#include "models/pg_cost_model.h"
#include "models/qppnet.h"
#include "models/registry.h"
#include "nn/kernels.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"
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

TEST_F(ModelsTest, NonFinitePredictionFailsOnlyItsOwnSlot) {
  // The PG formula passes a NaN or infinite root est_cost straight
  // through; the served value must fail with kNumericError in its own slot
  // and leave every co-batched request's bits alone.
  PgCostModel pg;
  ThreadPool pool(2);
  for (double poison : {std::nan(""), std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(poison);
    std::unique_ptr<PlanNode> poisoned = (*test_)[3].plan->Clone();
    poisoned->est_cost = poison;
    std::vector<PlanSample> clean(test_->begin(), test_->begin() + 8);
    std::vector<PlanSample> dirty = clean;
    dirty[3].plan = poisoned.get();
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      const std::vector<CostModel::BatchPrediction> want =
          pg.PredictBatchEach(clean, p);
      const std::vector<CostModel::BatchPrediction> got =
          pg.PredictBatchEach(dirty, p);
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < got.size(); ++i) {
        if (i == 3) {
          EXPECT_EQ(got[i].status.code(), StatusCode::kNumericError);
          continue;
        }
        ASSERT_TRUE(want[i].status.ok()) << i;
        ASSERT_TRUE(got[i].status.ok()) << i;
        EXPECT_EQ(0, std::memcmp(&got[i].ms, &want[i].ms, sizeof(double)))
            << "slot " << i;
      }
    }
    Result<double> one = pg.PredictMs(*poisoned, dirty[3].env_id);
    EXPECT_EQ(one.status().code(), StatusCode::kNumericError);
  }
}

TEST_F(ModelsTest, InvalidPlanFailsOnlyItsOwnSlot) {
  // An operator type outside OpType indexes past the encoder's one-hot
  // block and QPPNet's unit table, and a null child is dereferenced by
  // every plan walk. ValidatePlan rejects each with kInvalidArgument in its
  // own slot before any model reads the plan, and every co-batched request
  // keeps its bits.
  PgCostModel pg;
  QppNet qpp(featurizer_, QppNetConfig{}, 71);
  Mscn mscn(db_->catalog(), featurizer_, MscnConfig{}, 81);
  TrainConfig cfg;
  cfg.epochs = 2;
  ASSERT_TRUE(qpp.Train(*train_, cfg, nullptr).ok());
  ASSERT_TRUE(mscn.Train(*train_, cfg, nullptr).ok());

  std::vector<PlanSample> clean(test_->begin(), test_->begin() + 8);
  std::unique_ptr<PlanNode> bad_op = clean[3].plan->Clone();
  bad_op->op = static_cast<OpType>(200);
  auto with_child = std::find_if(
      test_->begin(), test_->end(),
      [](const PlanSample& s) { return s.plan->num_children() > 0; });
  ASSERT_NE(with_child, test_->end());
  std::unique_ptr<PlanNode> null_child = with_child->plan->Clone();
  null_child->children[0].reset();
  std::vector<PlanSample> dirty = clean;
  dirty[3].plan = bad_op.get();
  dirty[5].plan = null_child.get();

  ThreadPool pool(2);
  for (const CostModel* model : {static_cast<const CostModel*>(&pg),
                                 static_cast<const CostModel*>(&qpp),
                                 static_cast<const CostModel*>(&mscn)}) {
    SCOPED_TRACE(model->name());
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      const std::vector<CostModel::BatchPrediction> want =
          model->PredictBatchEach(clean, p);
      const std::vector<CostModel::BatchPrediction> got =
          model->PredictBatchEach(dirty, p);
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < got.size(); ++i) {
        if (i == 3 || i == 5) {
          EXPECT_EQ(got[i].status.code(), StatusCode::kInvalidArgument) << i;
          continue;
        }
        ASSERT_TRUE(want[i].status.ok()) << i;
        ASSERT_TRUE(got[i].status.ok()) << i;
        EXPECT_EQ(0, std::memcmp(&got[i].ms, &want[i].ms, sizeof(double)))
            << "slot " << i;
      }
    }
    EXPECT_EQ(model->PredictMs(*bad_op, 0).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(model->PredictMs(*null_child, 0).status().code(),
              StatusCode::kInvalidArgument);
  }

  // Each error names the node, by pre-order index; the other two enum
  // fields are checked the same way.
  EXPECT_EQ(CostModel::ValidatePlan(*bad_op).message(),
            "plan node 0: operator type 200 is out of range");
  EXPECT_EQ(CostModel::ValidatePlan(*null_child).message(),
            "plan node 0: child 0 is null");
  std::unique_ptr<PlanNode> bad_filter = with_child->plan->Clone();
  Predicate filter;
  filter.op = static_cast<CompareOp>(99);
  bad_filter->children[0]->filters.push_back(filter);
  EXPECT_EQ(CostModel::ValidatePlan(*bad_filter).message(),
            "plan node 1: filter comparison 99 is out of range");
  std::unique_ptr<PlanNode> bad_agg = with_child->plan->Clone();
  Aggregate agg;
  agg.kind = static_cast<Aggregate::Kind>(-1);
  bad_agg->aggregates.push_back(agg);
  EXPECT_EQ(CostModel::ValidatePlan(*bad_agg).message(),
            "plan node 0: aggregate kind -1 is out of range");
  EXPECT_TRUE(CostModel::ValidatePlan(*with_child->plan).ok());
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

/// The harness corpus and split of parallel_test's scalar-tier pins
/// (sysbench, 160 queries, 3 environments), so the AVX2 serving pins below
/// train the same estimators on the same data as the scalar reference.
class ServingPinTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    HarnessOptions opt = OptionsFor("sysbench", RunScale::kQuick);
    opt.corpus_size = 160;
    opt.num_envs = 3;
    auto ctx = BenchmarkContext::Create(opt);
    ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
    ctx_ = ctx.value().release();
    ctx_->Split(160, &train_, &test_);
  }

  static void TearDownTestSuite() {
    delete ctx_;
    ctx_ = nullptr;
  }

  static BenchmarkContext* ctx_;
  static std::vector<PlanSample> train_, test_;
};

BenchmarkContext* ServingPinTest::ctx_ = nullptr;
std::vector<PlanSample> ServingPinTest::train_;
std::vector<PlanSample> ServingPinTest::test_;

/// CRC-32 over the bytes of a run of values.
template <typename T>
uint32_t VectorCrc(const std::vector<T>& v) {
  return Crc32(v.data(), v.size() * sizeof(T));
}

TEST_F(ServingPinTest, Avx2ServingAndReductionArePinned) {
  // The AVX2 tier's serving and reduction bits for the estimators the
  // scalar-tier pin trains (seed 83, 4 epochs): predictions one plan at a
  // time through PredictMs, the same predictions as one batch through
  // PredictBatchMs, and the diff-prop scores and kept sets, which read
  // each operator view's averaged child context off a model forward.
  // Captured while each estimator still had a separate per-plan forward,
  // so they hold the batched path to that reference; never regenerate
  // them.
  struct Pin {
    const char* name;
    uint32_t per_plan_crc;
    uint32_t batch_crc;
    uint32_t kept_crc;
    uint32_t scores_crc;
  };
  const Pin pins[] = {
      {"qppnet", 0x706A6624u, 0x706A6624u, 0x506BDEEAu, 0xA422EF89u},
      {"mscn", 0xFF864A02u, 0xFF864A02u, 0x506BDEEAu, 0x0C79F914u},
  };
  if (!kernels::KernelIsaAvailable(kernels::KernelIsa::kAvx2)) {
    GTEST_SKIP() << "AVX2 tier not available on this machine/build";
  }
  kernels::ScopedKernelIsa tier(kernels::KernelIsa::kAvx2);
  for (const Pin& pin : pins) {
    BaseFeaturizer featurizer(ctx_->db->catalog());
    auto model = EstimatorRegistry::Global().Create(
        pin.name, {ctx_->db->catalog(), &featurizer, 83});
    ASSERT_TRUE(model.ok()) << pin.name;
    TrainConfig cfg;
    cfg.epochs = 4;
    ASSERT_TRUE((*model)->Train(train_, cfg, nullptr).ok()) << pin.name;
    std::vector<double> per_plan;
    for (const PlanSample& s : test_) {
      auto p = (*model)->PredictMs(*s.plan, s.env_id);
      ASSERT_TRUE(p.ok()) << pin.name;
      per_plan.push_back(*p);
    }
    auto batch = (*model)->PredictBatchMs(test_, nullptr);
    ASSERT_TRUE(batch.ok()) << pin.name;
    ReductionConfig rcfg;
    rcfg.algorithm = ReductionAlgorithm::kDiffProp;
    rcfg.num_references = 16;
    auto reduction = ReduceFeatures(**model, train_, rcfg, nullptr);
    ASSERT_TRUE(reduction.ok()) << pin.name;
    std::vector<uint64_t> kept;
    std::vector<double> scores;
    for (const auto& [op, r] : reduction->per_op) {
      kept.push_back(static_cast<uint64_t>(op));
      kept.push_back(r.kept.size());
      kept.insert(kept.end(), r.kept.begin(), r.kept.end());
      scores.insert(scores.end(), r.scores.begin(), r.scores.end());
    }
    const uint32_t per_plan_crc = VectorCrc(per_plan);
    const uint32_t batch_crc = VectorCrc(*batch);
    const uint32_t kept_crc = VectorCrc(kept);
    const uint32_t scores_crc = VectorCrc(scores);
    char got[128];
    std::snprintf(got, sizeof(got),
                  "per-plan 0x%08X batch 0x%08X kept 0x%08X scores 0x%08X",
                  per_plan_crc, batch_crc, kept_crc, scores_crc);
    EXPECT_EQ(per_plan_crc, pin.per_plan_crc) << pin.name << ": got " << got;
    EXPECT_EQ(batch_crc, pin.batch_crc) << pin.name << ": got " << got;
    EXPECT_EQ(kept_crc, pin.kept_crc) << pin.name << ": got " << got;
    EXPECT_EQ(scores_crc, pin.scores_crc) << pin.name << ": got " << got;
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
