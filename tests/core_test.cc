/// Tests for src/core: feature snapshot fitting (Table I formulas),
/// snapshot featurization, the three reduction algorithms (Algorithms 2-3,
/// Equation 1) and the end-to-end QCFE pipeline.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "core/feature_reduction.h"
#include "core/feature_snapshot.h"
#include "core/pipeline.h"
#include "core/qcfe.h"
#include "core/snapshot_featurizer.h"
#include "engine/cost_simulator.h"
#include "models/qppnet.h"
#include "util/rng.h"
#include "util/stats.h"
#include "workload/benchmark.h"
#include "workload/collector.h"

namespace qcfe {
namespace {

/// Index of the named dimension (schema.size() if there is none).
size_t DimIndex(const FeatureSchema& schema, const std::string& name) {
  const std::vector<std::string>& names = schema.names();
  return static_cast<size_t>(std::find(names.begin(), names.end(), name) -
                             names.begin());
}

/// The padding dimensions ("pad.0", "pad.1", ...).
std::vector<size_t> PaddingDims(const FeatureSchema& schema) {
  std::vector<size_t> out;
  for (size_t i = 0; i < schema.size(); ++i) {
    if (schema.name(i).compare(0, 4, "pad.") == 0) out.push_back(i);
  }
  return out;
}

// ------------------------------------------------------------- snapshot fit

TEST(FeatureSnapshotTest, DesignRowShapes) {
  std::array<double, kSnapshotWidth> row;
  EXPECT_EQ(FeatureSnapshot::DesignRow(OpType::kSeqScan, 100, 0, &row), 2u);
  EXPECT_DOUBLE_EQ(row[0], 100.0);
  EXPECT_DOUBLE_EQ(row[1], 1.0);
  EXPECT_DOUBLE_EQ(row[2], 0.0);

  EXPECT_EQ(FeatureSnapshot::DesignRow(OpType::kSort, 8, 0, &row), 2u);
  EXPECT_DOUBLE_EQ(row[0], 8.0 * 3.0);  // n log2 n

  EXPECT_EQ(FeatureSnapshot::DesignRow(OpType::kNestedLoop, 10, 20, &row), 4u);
  EXPECT_DOUBLE_EQ(row[0], 200.0);
  EXPECT_DOUBLE_EQ(row[1], 10.0);
  EXPECT_DOUBLE_EQ(row[2], 20.0);
  EXPECT_DOUBLE_EQ(row[3], 1.0);
}

TEST(FeatureSnapshotTest, FitRecoversKnownCoefficients) {
  // Synthetic scan observations: t = 0.002 n + 0.5, with noise.
  Rng rng(3);
  std::vector<OperatorObservation> obs;
  for (int i = 0; i < 300; ++i) {
    OperatorObservation o;
    o.op = OpType::kSeqScan;
    o.n = rng.Uniform(100, 50000);
    o.ms = (0.002 * o.n + 0.5) * rng.LognormalNoise(0.05);
    obs.push_back(o);
  }
  auto snap = FeatureSnapshot::Fit(obs);
  ASSERT_TRUE(snap.ok());
  const OperatorSnapshot& s = snap->Get(OpType::kSeqScan);
  EXPECT_NEAR(s.coeffs[0], 0.002, 0.0005);
  EXPECT_NEAR(s.coeffs[1], 0.5, 0.35);
  EXPECT_EQ(s.num_observations, 300u);
  // Unobserved types stay zero.
  EXPECT_EQ(snap->Get(OpType::kSort).num_observations, 0u);
  EXPECT_DOUBLE_EQ(snap->Get(OpType::kSort).coeffs[0], 0.0);
}

TEST(FeatureSnapshotTest, FitNestedLoopQuadraticTerm) {
  Rng rng(5);
  std::vector<OperatorObservation> obs;
  for (int i = 0; i < 400; ++i) {
    OperatorObservation o;
    o.op = OpType::kNestedLoop;
    o.n = rng.Uniform(10, 500);
    o.n2 = rng.Uniform(10, 500);
    o.ms = (1e-4 * o.n * o.n2 + 5e-4 * o.n + 5e-4 * o.n2 + 0.1) *
           rng.LognormalNoise(0.03);
    obs.push_back(o);
  }
  auto snap = FeatureSnapshot::Fit(obs);
  ASSERT_TRUE(snap.ok());
  EXPECT_NEAR(snap->Get(OpType::kNestedLoop).coeffs[0], 1e-4, 3e-5);
  // Prediction at a fresh point is close.
  double pred = snap->PredictMs(OpType::kNestedLoop, 200, 300);
  double truth = 1e-4 * 200 * 300 + 5e-4 * 200 + 5e-4 * 300 + 0.1;
  EXPECT_NEAR(pred, truth, 0.15 * truth);
}

TEST(FeatureSnapshotTest, CoefficientsAreNonNegative) {
  Rng rng(7);
  std::vector<OperatorObservation> obs;
  for (int i = 0; i < 100; ++i) {
    OperatorObservation o;
    o.op = OpType::kHashJoin;
    o.n = rng.Uniform(10, 1000);
    o.ms = 0.3 * rng.LognormalNoise(0.3);  // no n-dependence at all
    obs.push_back(o);
  }
  auto snap = FeatureSnapshot::Fit(obs);
  ASSERT_TRUE(snap.ok());
  for (double c : snap->Get(OpType::kHashJoin).coeffs) EXPECT_GE(c, 0.0);
}

// Snapshot captures the environment: fit snapshots under two environments
// that differ only in hardware speed and check the scan slope ordering.
TEST(FeatureSnapshotTest, SnapshotTracksEnvironmentCoefficients) {
  auto bench = MakeBenchmark("sysbench");
  auto db = (*bench)->BuildDatabase(0.05, 11);
  Environment fast;
  fast.id = 0;
  fast.hardware = HardwareProfile::H2();
  Environment slow;
  slow.id = 1;
  slow.hardware = HardwareProfile::Hdd();
  std::vector<Environment> envs = {fast, slow};

  QueryCollector collector(db.get(), &envs);
  auto set_fast = collector.Collect((*bench)->Templates(), 150, 13);
  ASSERT_TRUE(set_fast.ok());
  // Collect() alternates environments; split observations by env id.
  std::vector<OperatorObservation> obs_fast, obs_slow;
  for (const auto& q : set_fast->queries) {
    q.plan->VisitConst([&](const PlanNode* n) {
      OperatorObservation o;
      o.op = n->op;
      o.n = n->input_card;
      o.n2 = n->input_card2;
      o.ms = n->actual_ms;
      (q.env_id == 0 ? obs_fast : obs_slow).push_back(o);
    });
  }
  auto snap_fast = FeatureSnapshot::Fit(obs_fast);
  auto snap_slow = FeatureSnapshot::Fit(obs_slow);
  ASSERT_TRUE(snap_fast.ok() && snap_slow.ok());
  // The slow machine has a strictly larger per-matched-row cost for the
  // index scans that dominate this workload (sysbench seq-scan inputs are a
  // single constant table size, so only index scans identify a slope here).
  double c_fast = snap_fast->Get(OpType::kIndexScan).coeffs[0];
  double c_slow = snap_slow->Get(OpType::kIndexScan).coeffs[0];
  ASSERT_GT(snap_fast->Get(OpType::kIndexScan).num_observations, 0u);
  EXPECT_GT(c_slow, c_fast);
}

// ----------------------------------------------------- snapshot featurizer

TEST(SnapshotFeaturizerTest, AppendsEnvSpecificDims) {
  auto bench = MakeBenchmark("sysbench");
  auto db = (*bench)->BuildDatabase(0.03, 17);
  BaseFeaturizer base(db->catalog());

  SnapshotStore store;
  {
    std::vector<OperatorObservation> obs;
    Rng rng(19);
    for (int i = 0; i < 50; ++i) {
      OperatorObservation o;
      o.op = OpType::kSeqScan;
      o.n = rng.Uniform(10, 1000);
      o.ms = 0.001 * o.n + 0.1;
      obs.push_back(o);
    }
    auto s0 = FeatureSnapshot::Fit(obs);
    ASSERT_TRUE(s0.ok());
    store.Put(0, std::move(s0.value()));
    for (auto& o : obs) o.ms *= 3.0;  // a 3x slower environment
    auto s1 = FeatureSnapshot::Fit(obs);
    ASSERT_TRUE(s1.ok());
    store.Put(1, std::move(s1.value()));
  }

  SnapshotFeaturizer sf(&base, &store);
  EXPECT_EQ(sf.dim(OpType::kSeqScan), base.dim(OpType::kSeqScan) + kSnapshotWidth);
  EXPECT_EQ(sf.schema(OpType::kSeqScan).name(sf.dim(OpType::kSeqScan) - 1),
            "snapshot.c3");

  PlanNode scan;
  scan.op = OpType::kSeqScan;
  scan.table = "sbtest1";
  auto x0 = sf.Encode(scan, 0, 0);
  auto x1 = sf.Encode(scan, 0, 1);
  size_t c0 = base.dim(OpType::kSeqScan);
  // Same base features, different snapshot dims across environments.
  for (size_t i = 0; i < c0; ++i) EXPECT_EQ(x0[i], x1[i]);
  EXPECT_NEAR(x1[c0], 3.0 * x0[c0], 1e-9);
  // Unknown environment -> zero snapshot dims.
  auto x9 = sf.Encode(scan, 0, 99);
  for (size_t i = 0; i < kSnapshotWidth; ++i) EXPECT_EQ(x9[c0 + i], 0.0);
}

// --------------------------------------------------------------- reduction

/// Shared corpus + trained models for the reduction tests.
class ReductionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto bench = MakeBenchmark("sysbench");
    db_ = (*bench)->BuildDatabase(0.04, 23).release();
    envs_ = new std::vector<Environment>(
        EnvironmentSampler::Sample(3, HardwareProfile::H1(), 29));
    QueryCollector collector(db_, envs_);
    auto set = collector.Collect((*bench)->Templates(), 300, 37);
    ASSERT_TRUE(set.ok());
    corpus_ = new LabeledQuerySet(std::move(set.value()));
    featurizer_ = new BaseFeaturizer(db_->catalog());
    train_ = new std::vector<PlanSample>();
    for (const auto& q : corpus_->queries) {
      train_->push_back({q.plan.get(), q.env_id, q.total_ms});
    }
    model_ = new QppNet(featurizer_, QppNetConfig{}, 43);
    TrainConfig cfg;
    cfg.epochs = 15;
    ASSERT_TRUE(model_->Train(*train_, cfg, nullptr).ok());
  }

  static Database* db_;
  static std::vector<Environment>* envs_;
  static LabeledQuerySet* corpus_;
  static BaseFeaturizer* featurizer_;
  static std::vector<PlanSample>* train_;
  static QppNet* model_;
};

Database* ReductionTest::db_ = nullptr;
std::vector<Environment>* ReductionTest::envs_ = nullptr;
LabeledQuerySet* ReductionTest::corpus_ = nullptr;
BaseFeaturizer* ReductionTest::featurizer_ = nullptr;
std::vector<PlanSample>* ReductionTest::train_ = nullptr;
QppNet* ReductionTest::model_ = nullptr;

TEST_F(ReductionTest, DiffPropDropsDeadDimsKeepsCardinality) {
  ReductionConfig cfg;
  cfg.algorithm = ReductionAlgorithm::kDiffProp;
  cfg.num_references = 32;
  auto result = ReduceFeatures(*model_, *train_, cfg);
  ASSERT_TRUE(result.ok());
  // Sysbench runs scans/sorts/aggregates; check a type with observations.
  const OpReductionResult& r = result->per_op.at(OpType::kIndexScan);
  EXPECT_GT(r.dropped, 0u);
  std::set<size_t> kept(r.kept.begin(), r.kept.end());
  const FeatureSchema& schema = featurizer_->schema(OpType::kIndexScan);
  // Padding dims are constant zero -> importance exactly 0 -> dropped.
  for (size_t i : PaddingDims(schema)) EXPECT_EQ(kept.count(i), 0u);
  // The cardinality estimate is the dominant cost driver -> kept.
  EXPECT_EQ(kept.count(DimIndex(schema, "num.log_est_rows")), 1u);
  // Scores vector aligns with dims; dead dims score exactly zero.
  ASSERT_EQ(r.scores.size(), featurizer_->dim(OpType::kIndexScan));
  for (size_t i : PaddingDims(schema)) {
    EXPECT_DOUBLE_EQ(r.scores[i], 0.0);
  }
  EXPECT_GT(result->ReductionRatio(), 0.1);
  EXPECT_GT(result->runtime_seconds, 0.0);
}

TEST_F(ReductionTest, GradientProducesScoresButKeepsSomeDeadDims) {
  ReductionConfig cfg;
  cfg.algorithm = ReductionAlgorithm::kGradient;
  auto result = ReduceFeatures(*model_, *train_, cfg);
  ASSERT_TRUE(result.ok());
  const OpReductionResult& r = result->per_op.at(OpType::kIndexScan);
  ASSERT_FALSE(r.scores.empty());
  // Gradients flow through untrained random weights of dead dims, so (unlike
  // difference propagation) dead-dim scores are generally nonzero — the
  // paper's criticism of gradient reduction.
  const FeatureSchema& schema = featurizer_->schema(OpType::kIndexScan);
  double dead_score_sum = 0.0;
  for (size_t i : PaddingDims(schema)) dead_score_sum += r.scores[i];
  EXPECT_GT(dead_score_sum, 0.0);
}

TEST_F(ReductionTest, GreedyDropsFewFeatures) {
  ReductionConfig cfg;
  cfg.algorithm = ReductionAlgorithm::kGreedy;
  cfg.greedy_max_rows = 120;
  auto result = ReduceFeatures(*model_, *train_, cfg);
  ASSERT_TRUE(result.ok());
  // Greedy is conservative (paper: ~1% reduction vs ~41% for FR).
  ReductionConfig fr_cfg;
  fr_cfg.algorithm = ReductionAlgorithm::kDiffProp;
  auto fr = ReduceFeatures(*model_, *train_, fr_cfg);
  ASSERT_TRUE(fr.ok());
  EXPECT_LT(result->ReductionRatio(), fr->ReductionRatio());
}

TEST_F(ReductionTest, RuntimeGrowsWithReferences) {
  ReductionConfig small;
  small.algorithm = ReductionAlgorithm::kDiffProp;
  small.num_references = 8;
  ReductionConfig large = small;
  large.num_references = 128;
  auto rs = ReduceFeatures(*model_, *train_, small);
  auto rl = ReduceFeatures(*model_, *train_, large);
  ASSERT_TRUE(rs.ok() && rl.ok());
  EXPECT_GT(rl->runtime_seconds, rs->runtime_seconds);
  // Reduction ratio is robust to the reference count (paper Table VI).
  EXPECT_NEAR(rl->ReductionRatio(), rs->ReductionRatio(), 0.15);
}

TEST_F(ReductionTest, KeptMapUniformUnionsAcrossTypes) {
  ReductionResult result;
  OpReductionResult a;
  a.original_dim = 5;
  a.kept = {0, 2};
  OpReductionResult b;
  b.original_dim = 5;
  b.kept = {2, 4};
  result.per_op[OpType::kSeqScan] = a;
  result.per_op[OpType::kSort] = b;
  auto uniform = result.KeptMap(true);
  EXPECT_EQ(uniform[OpType::kSeqScan], (std::vector<size_t>{0, 2, 4}));
  EXPECT_EQ(uniform[OpType::kSort], (std::vector<size_t>{0, 2, 4}));
  auto per_type = result.KeptMap(false);
  EXPECT_EQ(per_type[OpType::kSort], (std::vector<size_t>{2, 4}));
}

TEST_F(ReductionTest, MaskedRetrainKeepsAccuracy) {
  ReductionConfig cfg;
  cfg.algorithm = ReductionAlgorithm::kDiffProp;
  auto result = ReduceFeatures(*model_, *train_, cfg);
  ASSERT_TRUE(result.ok());
  MaskedFeaturizer masked(featurizer_, result->KeptMap(false));
  QppNet reduced(&masked, QppNetConfig{}, 47);
  TrainConfig tc;
  tc.epochs = 15;
  ASSERT_TRUE(reduced.Train(*train_, tc, nullptr).ok());

  std::vector<double> actual, pred_full, pred_reduced;
  for (size_t i = 0; i < 60; ++i) {
    const PlanSample& s = (*train_)[i];
    actual.push_back(s.label_ms);
    pred_full.push_back(*model_->PredictMs(*s.plan, s.env_id));
    pred_reduced.push_back(*reduced.PredictMs(*s.plan, s.env_id));
  }
  double q_full = Mean(QErrors(actual, pred_full));
  double q_reduced = Mean(QErrors(actual, pred_reduced));
  // Dropping dead features must not blow up accuracy.
  EXPECT_LT(q_reduced, q_full * 1.5 + 0.5);
}

// ----------------------------------------------------------------- QCFE e2e

TEST(QcfeTest, FullPipelineBuildsAndPredicts) {
  auto bench = MakeBenchmark("sysbench");
  auto db = (*bench)->BuildDatabase(0.04, 53);
  auto envs = EnvironmentSampler::Sample(3, HardwareProfile::H1(), 59);
  auto templates = (*bench)->Templates();
  QueryCollector collector(db.get(), &envs);
  auto corpus = collector.Collect(templates, 260, 61);
  ASSERT_TRUE(corpus.ok());
  std::vector<PlanSample> train, test;
  auto split = SplitIndices(corpus->queries.size(), 0.8, 67);
  for (size_t i : split.train) {
    const auto& q = corpus->queries[i];
    train.push_back({q.plan.get(), q.env_id, q.total_ms});
  }
  for (size_t i : split.test) {
    const auto& q = corpus->queries[i];
    test.push_back({q.plan.get(), q.env_id, q.total_ms});
  }

  PipelineConfig cfg;
  cfg.estimator = "qppnet";
  cfg.snapshot_from_templates = true;
  cfg.snapshot_scale = 1;
  cfg.pre_reduction_epochs = 12;
  cfg.train.epochs = 40;
  auto built = Pipeline::Fit(db.get(), &envs, &templates, cfg, train);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Pipeline& m = **built;

  EXPECT_EQ(m.name(), "QCFE(qpp)");
  EXPECT_EQ(m.snapshot_store()->size(), envs.size());
  EXPECT_GT(m.snapshot_collection_ms(), 0.0);
  EXPECT_GT(m.snapshot_num_queries(), 0u);
  EXPECT_GT(m.reduction().ReductionRatio(), 0.0);
  // Index scans are the workhorse operator of sysbench: its featurizer
  // width must have shrunk relative to the snapshot-augmented width.
  size_t snap_dim = m.snapshot_featurizer()->dim(OpType::kIndexScan);
  EXPECT_LT(m.active_featurizer()->dim(OpType::kIndexScan), snap_dim);
  // Explain() reports the whole fitted chain.
  EXPECT_NE(m.Explain().find("QCFE(qpp)"), std::string::npos);
  EXPECT_NE(m.Explain().find("snapshot"), std::string::npos);

  std::vector<double> actual, predicted;
  for (const auto& s : test) {
    auto p = m.PredictMs(*s.plan, s.env_id);
    ASSERT_TRUE(p.ok());
    actual.push_back(s.label_ms);
    predicted.push_back(*p);
  }
  MetricSummary summary = Summarize(actual, predicted);
  EXPECT_LT(summary.mean_qerror, 5.0);
  EXPECT_GT(summary.pearson, 0.5);
}

TEST(QcfeTest, BaselineConfigYieldsPlainModelNames) {
  auto bench = MakeBenchmark("sysbench");
  auto db = (*bench)->BuildDatabase(0.03, 71);
  auto envs = EnvironmentSampler::Sample(2, HardwareProfile::H1(), 73);
  auto templates = (*bench)->Templates();
  QueryCollector collector(db.get(), &envs);
  auto corpus = collector.Collect(templates, 120, 79);
  ASSERT_TRUE(corpus.ok());
  std::vector<PlanSample> train;
  for (const auto& q : corpus->queries) {
    train.push_back({q.plan.get(), q.env_id, q.total_ms});
  }
  PipelineConfig cfg;
  cfg.estimator = "mscn";
  cfg.use_snapshot = false;
  cfg.use_reduction = false;
  cfg.train.epochs = 10;
  auto built = Pipeline::Fit(db.get(), &envs, &templates, cfg, train);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ((*built)->name(), "MSCN");
  EXPECT_EQ((*built)->snapshot_store(), nullptr);
  EXPECT_EQ((*built)->snapshot_featurizer(), nullptr);
  // With snapshot and reduction off, the model consumes the base encoding.
  EXPECT_NE((*built)->active_featurizer(), nullptr);
  EXPECT_EQ((*built)->active_featurizer(), (*built)->model().featurizer());
}

TEST(QcfeTest, FstCollectionIsCheaperThanFso) {
  auto bench = MakeBenchmark("tpch");
  auto db = (*bench)->BuildDatabase(0.05, 83);
  auto envs = EnvironmentSampler::Sample(2, HardwareProfile::H1(), 89);
  auto templates = (*bench)->Templates();
  SnapshotBuilder builder(db.get(), &templates);

  SnapshotStore fso_store, fst_store;
  double fso_ms = 0.0, fst_ms = 0.0;
  size_t fso_q = 0, fst_q = 0, fso_t = 0, fst_t = 0;
  ASSERT_TRUE(builder
                  .ComputeSnapshots(envs, /*from_templates=*/false, 1, 91,
                                    &fso_store, &fso_ms, &fso_q, &fso_t)
                  .ok());
  ASSERT_TRUE(builder
                  .ComputeSnapshots(envs, /*from_templates=*/true, 1, 93,
                                    &fst_store, &fst_ms, &fst_q, &fst_t)
                  .ok());
  EXPECT_EQ(fso_store.size(), envs.size());
  EXPECT_EQ(fst_store.size(), envs.size());
  // The simplified templates run single scans/joins instead of the full
  // TPC-H pipelines: collection cost per query must be much lower (paper
  // Table V: ~11-50%).
  double fso_per_query = fso_ms / static_cast<double>(fso_q);
  double fst_per_query = fst_ms / static_cast<double>(fst_q);
  EXPECT_LT(fst_per_query, 0.7 * fso_per_query);
  EXPECT_EQ(fso_t, templates.size());
  EXPECT_GT(fst_t, 0u);
}

TEST(QcfeTest, SnapshotStoreExtensionForNewHardware) {
  auto bench = MakeBenchmark("sysbench");
  auto db = (*bench)->BuildDatabase(0.03, 97);
  auto envs = EnvironmentSampler::Sample(2, HardwareProfile::H1(), 101);
  auto templates = (*bench)->Templates();
  SnapshotBuilder builder(db.get(), &templates);

  SnapshotStore store;
  double ms = 0.0;
  ASSERT_TRUE(builder.ComputeSnapshots(envs, true, 1, 103, &store, &ms,
                                       nullptr, nullptr)
                  .ok());
  EXPECT_EQ(store.size(), 2u);

  // Transfer scenario: new environments on different hardware get ids 100+.
  std::vector<Environment> h2_envs =
      EnvironmentSampler::Sample(2, HardwareProfile::H2(), 107);
  for (auto& e : h2_envs) e.id += 100;
  ASSERT_TRUE(builder.ComputeSnapshots(h2_envs, true, 1, 109, &store, &ms,
                                       nullptr, nullptr)
                  .ok());
  EXPECT_EQ(store.size(), 4u);
  EXPECT_NE(store.Get(100), nullptr);
  EXPECT_NE(store.Get(0), nullptr);
  EXPECT_EQ(store.Get(55), nullptr);
}

}  // namespace
}  // namespace qcfe
