/// Tests for the serving API: the EstimatorRegistry (round-trip, traits,
/// error paths), the Pipeline facade (fit / predict / explain / transfer),
/// and the batched inference path — whose results must be bit-identical to
/// the per-plan scalar path at every level (Mlp, estimator, facade).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "harness/context.h"
#include "models/registry.h"
#include "nn/mlp.h"
#include "util/rng.h"

namespace qcfe {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    HarnessOptions opt = OptionsFor("sysbench", RunScale::kQuick);
    opt.corpus_size = 240;
    opt.num_envs = 3;
    auto ctx = BenchmarkContext::Create(opt);
    ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
    ctx_ = ctx.value().release();
    ctx_->Split(240, &train_, &test_);
  }

  static void TearDownTestSuite() {
    delete ctx_;
    ctx_ = nullptr;
  }

  static BenchmarkContext* ctx_;
  static std::vector<PlanSample> train_, test_;
};

BenchmarkContext* PipelineTest::ctx_ = nullptr;
std::vector<PlanSample> PipelineTest::train_;
std::vector<PlanSample> PipelineTest::test_;

// ---------------------------------------------------------------- registry

TEST_F(PipelineTest, RegistryContainsBuiltinEstimators) {
  EstimatorRegistry& registry = EstimatorRegistry::Global();
  for (const char* name : {"qppnet", "mscn", "pgsql"}) {
    EXPECT_TRUE(registry.Contains(name)) << name;
  }
  std::vector<std::string> names = registry.Names();
  EXPECT_GE(names.size(), 3u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST_F(PipelineTest, RegistryRoundTrip) {
  EstimatorRegistry& registry = EstimatorRegistry::Global();
  BaseFeaturizer featurizer(ctx_->db->catalog());
  EstimatorContext context{ctx_->db->catalog(), &featurizer, 1};
  for (const char* name : {"qppnet", "mscn", "pgsql"}) {
    auto model = registry.Create(name, context);
    ASSERT_TRUE(model.ok()) << name << ": " << model.status().ToString();
    auto info = registry.Info(name);
    ASSERT_TRUE(info.ok());
    EXPECT_EQ((*model)->name(), info->display_name) << name;
  }
  // Traits drive pipeline behaviour: MSCN needs uniform masks, PGSQL is
  // analytical.
  EXPECT_FALSE(registry.Info("qppnet")->uniform_feature_width);
  EXPECT_TRUE(registry.Info("mscn")->uniform_feature_width);
  EXPECT_TRUE(registry.Info("qppnet")->learned);
  EXPECT_FALSE(registry.Info("pgsql")->learned);
}

TEST_F(PipelineTest, RegistryUnknownNameFails) {
  EstimatorRegistry& registry = EstimatorRegistry::Global();
  auto model = registry.Create("no_such_estimator", {});
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kNotFound);
  // The error names the registered estimators so typos are debuggable.
  EXPECT_NE(model.status().message().find("qppnet"), std::string::npos);
  EXPECT_FALSE(registry.Info("no_such_estimator").ok());

  PipelineConfig cfg;
  cfg.estimator = "no_such_estimator";
  EXPECT_FALSE(ctx_->FitPipeline(cfg, train_).ok());
}

TEST_F(PipelineTest, RegistryRejectsBadRegistrations) {
  EstimatorRegistry& registry = EstimatorRegistry::Global();
  auto factory =
      [](const EstimatorContext&) -> Result<std::unique_ptr<CostModel>> {
    return Status::Internal("unused");
  };
  EXPECT_FALSE(registry.Register({"", "X", "x", true, false}, factory).ok());
  EXPECT_FALSE(
      registry.Register({"qppnet", "Dup", "dup", true, false}, factory)
          .ok());  // first registration wins
  EXPECT_FALSE(
      registry.Register({"null_factory", "N", "n", true, false}, nullptr)
          .ok());
}

TEST_F(PipelineTest, RegistryFactoriesValidateContext) {
  EstimatorRegistry& registry = EstimatorRegistry::Global();
  // Learned estimators need a featurizer (and MSCN a catalog); pgsql doesn't.
  EXPECT_FALSE(registry.Create("qppnet", {}).ok());
  EXPECT_FALSE(
      registry.Create("mscn", {ctx_->db->catalog(), nullptr, 1}).ok());
  EXPECT_TRUE(registry.Create("pgsql", {}).ok());
}

// ------------------------------------------------------------ batch parity

TEST_F(PipelineTest, QppNetBatchMatchesScalarBitForBit) {
  BaseFeaturizer featurizer(ctx_->db->catalog());
  auto model = EstimatorRegistry::Global().Create(
      "qppnet", {ctx_->db->catalog(), &featurizer, 11});
  ASSERT_TRUE(model.ok());
  TrainConfig tc;
  tc.epochs = 6;
  ASSERT_TRUE((*model)->Train(train_, tc, nullptr).ok());

  auto batch = (*model)->PredictBatchMs(test_);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), test_.size());
  for (size_t i = 0; i < test_.size(); ++i) {
    auto scalar = (*model)->PredictMs(*test_[i].plan, test_[i].env_id);
    ASSERT_TRUE(scalar.ok());
    EXPECT_EQ((*batch)[i], *scalar) << "sample " << i;  // bit-identical
  }
}

TEST_F(PipelineTest, MscnBatchMatchesScalarBitForBit) {
  BaseFeaturizer featurizer(ctx_->db->catalog());
  auto model = EstimatorRegistry::Global().Create(
      "mscn", {ctx_->db->catalog(), &featurizer, 13});
  ASSERT_TRUE(model.ok());
  TrainConfig tc;
  tc.epochs = 6;
  ASSERT_TRUE((*model)->Train(train_, tc, nullptr).ok());

  auto batch = (*model)->PredictBatchMs(test_);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), test_.size());
  for (size_t i = 0; i < test_.size(); ++i) {
    auto scalar = (*model)->PredictMs(*test_[i].plan, test_[i].env_id);
    ASSERT_TRUE(scalar.ok());
    EXPECT_EQ((*batch)[i], *scalar) << "sample " << i;  // bit-identical
  }
}

TEST_F(PipelineTest, BatchEdgeCases) {
  BaseFeaturizer featurizer(ctx_->db->catalog());
  auto model = EstimatorRegistry::Global().Create(
      "qppnet", {ctx_->db->catalog(), &featurizer, 17});
  ASSERT_TRUE(model.ok());
  // Untrained models refuse batches like they refuse single plans.
  EXPECT_FALSE((*model)->PredictBatchMs(test_).ok());
  TrainConfig tc;
  tc.epochs = 2;
  ASSERT_TRUE((*model)->Train(train_, tc, nullptr).ok());
  // Empty batches are fine.
  auto empty = (*model)->PredictBatchMs({});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  // Null plans are rejected, not dereferenced.
  std::vector<PlanSample> bad = {{nullptr, 0, 0.0}};
  EXPECT_FALSE((*model)->PredictBatchMs(bad).ok());
}

TEST_F(PipelineTest, MlpScratchPredictMatchesAllocatingPredict) {
  Rng rng(3);
  Mlp mlp({6, 16, 16, 1}, Activation::kRelu, &rng);
  Matrix x(32, 6);
  x.RandomizeGaussian(&rng, 1.0);
  Matrix expected = mlp.Predict(x);
  Mlp::Scratch scratch;
  const Matrix& got = mlp.Predict(x, &scratch);
  ASSERT_EQ(got.rows(), expected.rows());
  ASSERT_EQ(got.cols(), expected.cols());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(got.data()[i], expected.data()[i]);
  }
  // Scratch is reusable across calls.
  const Matrix& again = mlp.Predict(x, &scratch);
  EXPECT_EQ(again.At(0, 0), expected.At(0, 0));
}

// ------------------------------------------------------------------ facade

TEST_F(PipelineTest, FitPredictExplainEndToEnd) {
  PipelineConfig cfg;
  cfg.estimator = "qppnet";
  cfg.snapshot_scale = 1;
  cfg.pre_reduction_epochs = 6;
  cfg.train.epochs = 10;
  cfg.seed = 29;
  auto pipeline = ctx_->FitPipeline(cfg, train_);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  EXPECT_EQ((*pipeline)->name(), "QCFE(qpp)");

  // Scalar and batched serving agree bit for bit through the facade.
  auto batch = (*pipeline)->PredictBatch(test_);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), test_.size());
  for (size_t i = 0; i < test_.size(); ++i) {
    auto scalar = (*pipeline)->PredictMs(*test_[i].plan, test_[i].env_id);
    ASSERT_TRUE(scalar.ok());
    EXPECT_EQ((*batch)[i], *scalar);
  }

  std::string explain = (*pipeline)->Explain();
  EXPECT_NE(explain.find("QCFE(qpp)"), std::string::npos);
  EXPECT_NE(explain.find("snapshot"), std::string::npos);
  EXPECT_NE(explain.find("reduction"), std::string::npos);
}

TEST_F(PipelineTest, AnalyticalEstimatorSkipsQcfeStages) {
  PipelineConfig cfg;
  cfg.estimator = "pgsql";
  cfg.use_snapshot = true;   // ignored: nothing to snapshot
  cfg.use_reduction = true;  // ignored: no operator view
  auto pipeline = ctx_->FitPipeline(cfg, train_);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  EXPECT_EQ((*pipeline)->name(), "PGSQL");
  EXPECT_EQ((*pipeline)->snapshot_store(), nullptr);
  auto p = (*pipeline)->PredictMs(*test_[0].plan, test_[0].env_id);
  EXPECT_TRUE(p.ok());
}

TEST_F(PipelineTest, ExtendSnapshotsAndRetrain) {
  PipelineConfig cfg;
  cfg.estimator = "qppnet";
  cfg.snapshot_scale = 1;
  cfg.use_reduction = false;
  cfg.train.epochs = 4;
  auto pipeline = ctx_->FitPipeline(cfg, train_);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  size_t before = (*pipeline)->snapshot_store()->size();

  std::vector<Environment> h2 =
      EnvironmentSampler::Sample(2, HardwareProfile::H2(), 31);
  for (auto& e : h2) e.id += 100;
  double collect_ms = 0.0;
  ASSERT_TRUE((*pipeline)
                  ->ExtendSnapshots(h2, /*from_templates=*/true, 1, 37,
                                    &collect_ms)
                  .ok());
  EXPECT_EQ((*pipeline)->snapshot_store()->size(), before + 2);
  EXPECT_GT(collect_ms, 0.0);

  TrainConfig retrain;
  retrain.epochs = 2;
  TrainStats stats;
  ASSERT_TRUE((*pipeline)->Retrain(train_, retrain, &stats).ok());
  EXPECT_EQ(stats.loss_curve.size(), 2u);
}

TEST_F(PipelineTest, RetrainRejectsNonFiniteLabelAndKeepsServingBits) {
  // One NaN-labelled sample among healthy ones. The plan's root latency is
  // NaN too, since QPPNet trains on per-node subtree latencies.
  std::unique_ptr<PlanNode> poisoned_plan = train_[0].plan->Clone();
  poisoned_plan->actual_ms = std::nan("");
  std::vector<PlanSample> poisoned = train_;
  poisoned.push_back({poisoned_plan.get(), train_[0].env_id, std::nan("")});

  for (const char* estimator : {"qppnet", "mscn"}) {
    SCOPED_TRACE(estimator);
    PipelineConfig cfg;
    cfg.estimator = estimator;
    cfg.snapshot_scale = 1;
    cfg.use_reduction = false;
    cfg.train.epochs = 3;
    cfg.parallelism.num_threads = 2;
    auto victim = ctx_->FitPipeline(cfg, train_);
    auto twin = ctx_->FitPipeline(cfg, train_);
    ASSERT_TRUE(victim.ok()) << victim.status().ToString();
    ASSERT_TRUE(twin.ok()) << twin.status().ToString();
    auto before = (*victim)->PredictBatch(test_);
    ASSERT_TRUE(before.ok());
    const size_t curve = (*victim)->train_stats().loss_curve.size();

    TrainConfig retrain;
    retrain.epochs = 2;
    Status st = (*victim)->Retrain(poisoned, retrain);
    EXPECT_EQ(st.code(), StatusCode::kNumericError) << st.ToString();
    EXPECT_NE(st.message().find("epoch 0, batch "), std::string::npos)
        << st.ToString();

    // Nothing changed: served predictions, history, and (through a clean
    // retrain matched against an untouched twin) the optimizer state.
    auto after = (*victim)->PredictBatch(test_);
    ASSERT_TRUE(after.ok());
    ASSERT_EQ(after->size(), before->size());
    for (size_t i = 0; i < after->size(); ++i) {
      EXPECT_EQ(std::memcmp(&(*after)[i], &(*before)[i], sizeof(double)), 0)
          << "prediction " << i;
    }
    EXPECT_EQ((*victim)->train_stats().loss_curve.size(), curve);
    ASSERT_TRUE((*victim)->Retrain(train_, retrain).ok());
    ASSERT_TRUE((*twin)->Retrain(train_, retrain).ok());
    auto victim_next = (*victim)->PredictBatch(test_);
    auto twin_next = (*twin)->PredictBatch(test_);
    ASSERT_TRUE(victim_next.ok() && twin_next.ok());
    for (size_t i = 0; i < victim_next->size(); ++i) {
      EXPECT_EQ(std::memcmp(&(*victim_next)[i], &(*twin_next)[i],
                            sizeof(double)),
                0)
          << "prediction " << i << " after a clean retrain";
    }
  }
}

TEST_F(PipelineTest, ExtendSnapshotsAssignsCollectionCost) {
  PipelineConfig cfg;
  cfg.estimator = "qppnet";
  cfg.snapshot_scale = 1;
  cfg.use_reduction = false;
  cfg.train.epochs = 2;
  auto pipeline = ctx_->FitPipeline(cfg, train_);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  const double total_before = (*pipeline)->snapshot_collection_ms();

  // `collect_ms` is an out-parameter with assign semantics: deliberately
  // garbage-initialize it and verify the garbage cannot leak through (the
  // old `+=` accumulate semantics would report ~1.2e8 ms here).
  std::vector<Environment> extra =
      EnvironmentSampler::Sample(2, HardwareProfile::H2(), 51);
  for (auto& e : extra) e.id += 200;
  double collect_ms = 123456789.0;
  ASSERT_TRUE((*pipeline)
                  ->ExtendSnapshots(extra, /*from_templates=*/true, 1, 53,
                                    &collect_ms)
                  .ok());
  EXPECT_GT(collect_ms, 0.0);
  EXPECT_LT(collect_ms, 1e8);

  // The pipeline-lifetime total still accumulates across extensions, and
  // the per-call output is exactly this call's contribution.
  std::vector<Environment> more =
      EnvironmentSampler::Sample(1, HardwareProfile::H2(), 57);
  for (auto& e : more) e.id += 300;
  const double total_mid = (*pipeline)->snapshot_collection_ms();
  EXPECT_EQ(total_mid, total_before + collect_ms);
  double second = -1.0;
  ASSERT_TRUE((*pipeline)
                  ->ExtendSnapshots(more, /*from_templates=*/true, 1, 59,
                                    &second)
                  .ok());
  EXPECT_GT(second, 0.0);
  EXPECT_EQ((*pipeline)->snapshot_collection_ms(), total_mid + second);
}

TEST_F(PipelineTest, ExtendSnapshotsNamesAndRefitsCacheCollisions) {
  PipelineConfig cfg;
  cfg.estimator = "qppnet";
  cfg.snapshot_scale = 1;
  cfg.use_reduction = false;
  cfg.train.epochs = 2;
  auto pipeline = ctx_->FitPipeline(cfg, train_);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  const SnapshotStore* store = (*pipeline)->snapshot_store();
  size_t before = store->size();

  // Re-collect an environment that Fit already snapshotted: the collision
  // must be detected and named, not silently last-write-wins.
  std::vector<Environment> overlap = {ctx_->envs.front()};
  Status st = (*pipeline)->ExtendSnapshots(overlap, /*from_templates=*/true,
                                           /*scale=*/1, /*seed=*/91);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kAlreadyExists);
  EXPECT_NE(st.message().find(std::to_string(ctx_->envs.front().id)),
            std::string::npos)
      << st.ToString();

  // The environment was refit (invalidate + recompute), not dropped.
  EXPECT_EQ(store->size(), before);
  const FeatureSnapshot* first = store->Get(ctx_->envs.front().id);
  ASSERT_NE(first, nullptr);
  std::vector<double> coeffs;
  for (OpType op : AllOpTypes()) {
    for (double c : first->Get(op).coeffs) coeffs.push_back(c);
  }

  // Deterministic refit: a second collision with the same arguments lands
  // on bit-identical coefficients, regardless of what was cached before.
  Status again = (*pipeline)->ExtendSnapshots(overlap, /*from_templates=*/true,
                                              /*scale=*/1, /*seed=*/91);
  EXPECT_EQ(again.code(), StatusCode::kAlreadyExists);
  const FeatureSnapshot* second = store->Get(ctx_->envs.front().id);
  ASSERT_NE(second, nullptr);
  size_t i = 0;
  for (OpType op : AllOpTypes()) {
    for (double c : second->Get(op).coeffs) EXPECT_EQ(c, coeffs[i++]);
  }
}

TEST_F(PipelineTest, PipelineWithoutSnapshotRefusesExtension) {
  PipelineConfig cfg;
  cfg.estimator = "qppnet";
  cfg.use_snapshot = false;
  cfg.use_reduction = false;
  cfg.train.epochs = 2;
  auto pipeline = ctx_->FitPipeline(cfg, train_);
  ASSERT_TRUE(pipeline.ok());
  std::vector<Environment> h2 =
      EnvironmentSampler::Sample(1, HardwareProfile::H2(), 41);
  EXPECT_FALSE((*pipeline)->ExtendSnapshots(h2, true, 1, 43).ok());
}

}  // namespace
}  // namespace qcfe
