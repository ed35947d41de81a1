/// Tests for the paper's discussed extensions: dynamic-workload feature
/// recall (Section IV discussion / future work) and the fine-grained
/// operator-table snapshot (Section III discussion). Plus property-style
/// sweeps over operator types and benchmarks.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/feature_reduction.h"
#include "core/feature_snapshot.h"
#include "core/pipeline.h"
#include "core/qcfe.h"
#include "core/snapshot_featurizer.h"
#include "models/qppnet.h"
#include "util/rng.h"
#include "util/stats.h"
#include "workload/benchmark.h"
#include "workload/collector.h"

namespace qcfe {
namespace {

// ------------------------------------------------------------------ recall

TEST(RecallTest, DriftedWorkloadRecallsNewlyVaryingDims) {
  auto bench = MakeBenchmark("sysbench");
  auto db = (*bench)->BuildDatabase(0.04, 3);
  auto envs = EnvironmentSampler::Sample(3, HardwareProfile::H1(), 5);
  auto all_templates = (*bench)->Templates();

  // Old workload: point selects only (template 0). Most encoding dims never
  // vary: equality predicates, single access path.
  std::vector<QueryTemplate> point_only = {all_templates[0]};
  QueryCollector collector(db.get(), &envs);
  auto old_corpus = collector.Collect(point_only, 150, 7);
  ASSERT_TRUE(old_corpus.ok());
  std::vector<PlanSample> old_train;
  for (const auto& q : old_corpus->queries) {
    old_train.push_back({q.plan.get(), q.env_id, q.total_ms});
  }

  BaseFeaturizer featurizer(db->catalog());
  QppNet model(&featurizer, QppNetConfig{}, 11);
  TrainConfig tc;
  tc.epochs = 8;
  ASSERT_TRUE(model.Train(old_train, tc, nullptr).ok());

  ReductionConfig rcfg;
  rcfg.algorithm = ReductionAlgorithm::kDiffProp;
  auto reduction = ReduceFeatures(model, old_train, rcfg);
  ASSERT_TRUE(reduction.ok());
  size_t kept_before =
      reduction->per_op.at(OpType::kIndexScan).kept.size();

  // Drifted workload: the full oltp_read_only mix (ranges, sums, sorts,
  // distinct) — BETWEEN predicates and varying cardinalities appear.
  auto new_corpus = collector.Collect(all_templates, 150, 13);
  ASSERT_TRUE(new_corpus.ok());
  std::vector<PlanSample> new_samples;
  for (const auto& q : new_corpus->queries) {
    new_samples.push_back({q.plan.get(), q.env_id, q.total_ms});
  }

  auto recall = RecallFeatures(featurizer, *reduction, new_samples);
  ASSERT_TRUE(recall.ok());
  EXPECT_GT(recall->total_recalled, 0u);
  const auto& idx_recalled = recall->recalled.at(OpType::kIndexScan);
  EXPECT_FALSE(idx_recalled.empty());
  // The BETWEEN predicate-op dim regained inherent value.
  const FeatureSchema& schema = featurizer.schema(OpType::kIndexScan);
  auto between_dim = std::find(schema.names().begin(), schema.names().end(),
                               "predop=between");
  ASSERT_NE(between_dim, schema.names().end());
  std::set<size_t> recalled_set(idx_recalled.begin(), idx_recalled.end());
  EXPECT_EQ(recalled_set.count(static_cast<size_t>(
                between_dim - schema.names().begin())),
            1u);
  // Merged kept map is a superset of the old one and sorted/unique.
  const auto& new_kept = recall->new_kept.at(OpType::kIndexScan);
  EXPECT_GT(new_kept.size(), kept_before);
  EXPECT_TRUE(std::is_sorted(new_kept.begin(), new_kept.end()));
  std::set<size_t> uniq(new_kept.begin(), new_kept.end());
  EXPECT_EQ(uniq.size(), new_kept.size());
}

TEST(RecallTest, StableWorkloadRecallsNothing) {
  auto bench = MakeBenchmark("sysbench");
  auto db = (*bench)->BuildDatabase(0.04, 17);
  auto envs = EnvironmentSampler::Sample(2, HardwareProfile::H1(), 19);
  auto templates = (*bench)->Templates();
  QueryCollector collector(db.get(), &envs);
  auto corpus = collector.Collect(templates, 160, 23);
  ASSERT_TRUE(corpus.ok());
  std::vector<PlanSample> train;
  for (const auto& q : corpus->queries) {
    train.push_back({q.plan.get(), q.env_id, q.total_ms});
  }
  BaseFeaturizer featurizer(db->catalog());
  QppNet model(&featurizer, QppNetConfig{}, 29);
  TrainConfig tc;
  tc.epochs = 8;
  ASSERT_TRUE(model.Train(train, tc, nullptr).ok());
  ReductionConfig rcfg;
  auto reduction = ReduceFeatures(model, train, rcfg);
  ASSERT_TRUE(reduction.ok());

  // Same workload again: nothing new should vary.
  auto corpus2 = collector.Collect(templates, 160, 31);
  ASSERT_TRUE(corpus2.ok());
  std::vector<PlanSample> again;
  for (const auto& q : corpus2->queries) {
    again.push_back({q.plan.get(), q.env_id, q.total_ms});
  }
  auto recall = RecallFeatures(featurizer, *reduction, again);
  ASSERT_TRUE(recall.ok());
  EXPECT_EQ(recall->total_recalled, 0u);
}

TEST(RecallTest, EmptySamplesRejected) {
  auto bench = MakeBenchmark("sysbench");
  auto db = (*bench)->BuildDatabase(0.03, 37);
  BaseFeaturizer featurizer(db->catalog());
  ReductionResult previous;
  EXPECT_FALSE(RecallFeatures(featurizer, previous, {}).ok());
}

// ------------------------------------------------- fine-grained snapshots

/// True if `snap` holds a dedicated (op, table) fit: GetFine falls back to
/// the operator-level coefficients, the same object Get returns, otherwise.
bool HasFine(const FeatureSnapshot& snap, OpType op, const std::string& table) {
  return &snap.GetFine(op, table) != &snap.Get(op);
}

TEST(FineGrainedSnapshotTest, PerTableCoefficientsBeatOperatorLevel) {
  // Two "tables" with very different per-tuple scan costs.
  Rng rng(41);
  std::vector<OperatorObservation> obs;
  for (int i = 0; i < 200; ++i) {
    OperatorObservation a;
    a.op = OpType::kSeqScan;
    a.table = "narrow";
    a.n = rng.Uniform(100, 10000);
    a.ms = 0.0005 * a.n + 0.05;
    obs.push_back(a);
    OperatorObservation b;
    b.op = OpType::kSeqScan;
    b.table = "wide";
    b.n = rng.Uniform(100, 10000);
    b.ms = 0.004 * b.n + 0.05;  // 8x wider rows
    obs.push_back(b);
  }
  auto coarse = FeatureSnapshot::Fit(obs, SnapshotGranularity::kOperator);
  auto fine = FeatureSnapshot::Fit(obs, SnapshotGranularity::kOperatorTable);
  ASSERT_TRUE(coarse.ok() && fine.ok());

  EXPECT_FALSE(HasFine(*coarse, OpType::kSeqScan, "narrow"));
  ASSERT_TRUE(HasFine(*fine, OpType::kSeqScan, "narrow"));
  ASSERT_TRUE(HasFine(*fine, OpType::kSeqScan, "wide"));

  // The fine-grained slopes recover each table's true cost; the coarse slope
  // is a compromise between them.
  double c_narrow = fine->GetFine(OpType::kSeqScan, "narrow").coeffs[0];
  double c_wide = fine->GetFine(OpType::kSeqScan, "wide").coeffs[0];
  EXPECT_NEAR(c_narrow, 0.0005, 2e-4);
  EXPECT_NEAR(c_wide, 0.004, 1e-3);
  double c_coarse = coarse->Get(OpType::kSeqScan).coeffs[0];
  EXPECT_GT(c_coarse, c_narrow);
  EXPECT_LT(c_coarse, c_wide);
  // Unknown tables fall back to the operator-level coefficients.
  EXPECT_DOUBLE_EQ(fine->GetFine(OpType::kSeqScan, "unknown").coeffs[0],
                   fine->Get(OpType::kSeqScan).coeffs[0]);
}

TEST(FineGrainedSnapshotTest, FeaturizerUsesPerTableCoefficients) {
  auto bench = MakeBenchmark("tpch");
  auto db = (*bench)->BuildDatabase(0.04, 43);
  auto envs = EnvironmentSampler::Sample(2, HardwareProfile::H1(), 47);
  auto templates = (*bench)->Templates();
  SnapshotBuilder builder(db.get(), &templates);

  SnapshotStore store;
  ASSERT_TRUE(builder
                  .ComputeSnapshots(envs, /*from_templates=*/true, 2, 53,
                                    &store, nullptr, nullptr, nullptr,
                                    SnapshotGranularity::kOperatorTable)
                  .ok());
  BaseFeaturizer base(db->catalog());
  SnapshotFeaturizer coarse(&base, &store, /*fine_grained=*/false);
  SnapshotFeaturizer fine(&base, &store, /*fine_grained=*/true);

  // A lineitem scan vs a customer scan: fine-grained snapshot dims differ
  // between tables, coarse ones do not.
  PlanNode scan_l;
  scan_l.op = OpType::kSeqScan;
  scan_l.table = "lineitem";
  PlanNode scan_c;
  scan_c.op = OpType::kSeqScan;
  scan_c.table = "customer";

  size_t d = base.dim(OpType::kSeqScan);
  auto coarse_l = coarse.Encode(scan_l, 0, 0);
  auto coarse_c = coarse.Encode(scan_c, 0, 0);
  EXPECT_EQ(coarse_l[d], coarse_c[d]);  // same op-level c0

  const FeatureSnapshot* snap = store.Get(0);
  ASSERT_NE(snap, nullptr);
  if (HasFine(*snap, OpType::kSeqScan, "lineitem") &&
      HasFine(*snap, OpType::kSeqScan, "customer")) {
    auto fine_l = fine.Encode(scan_l, 0, 0);
    auto fine_c = fine.Encode(scan_c, 0, 0);
    bool any_diff = false;
    for (size_t k = 0; k < kSnapshotWidth; ++k) {
      any_diff |= (fine_l[d + k] != fine_c[d + k]);
    }
    EXPECT_TRUE(any_diff);
  }
}

TEST(FineGrainedSnapshotTest, QcfePipelineAcceptsGranularity) {
  auto bench = MakeBenchmark("sysbench");
  auto db = (*bench)->BuildDatabase(0.03, 59);
  auto envs = EnvironmentSampler::Sample(2, HardwareProfile::H1(), 61);
  auto templates = (*bench)->Templates();
  QueryCollector collector(db.get(), &envs);
  auto corpus = collector.Collect(templates, 120, 67);
  ASSERT_TRUE(corpus.ok());
  std::vector<PlanSample> train;
  for (const auto& q : corpus->queries) {
    train.push_back({q.plan.get(), q.env_id, q.total_ms});
  }
  PipelineConfig cfg;
  cfg.estimator = "qppnet";
  cfg.snapshot_granularity = SnapshotGranularity::kOperatorTable;
  cfg.use_reduction = false;
  cfg.train.epochs = 6;
  auto built = Pipeline::Fit(db.get(), &envs, &templates, cfg, train);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto p = (*built)->PredictMs(*train[0].plan, train[0].env_id);
  EXPECT_TRUE(p.ok());
}

// ------------------------------------------------------ property sweeps

/// Table I design rows are consistent for every operator type: width matches
/// the formula family and PredictMs is linear in the coefficients.
class SnapshotOpSweep : public ::testing::TestWithParam<OpType> {};

TEST_P(SnapshotOpSweep, FitRecoversSyntheticCoefficients) {
  OpType op = GetParam();
  Rng rng(1000 + static_cast<uint64_t>(op));
  std::array<double, kSnapshotWidth> truth = {0.002, 0.3, 0.0008, 0.05};
  std::vector<OperatorObservation> obs;
  for (int i = 0; i < 400; ++i) {
    OperatorObservation o;
    o.op = op;
    o.n = rng.Uniform(50, 20000);
    o.n2 = rng.Uniform(10, 500);
    std::array<double, kSnapshotWidth> row;
    size_t width = FeatureSnapshot::DesignRow(op, o.n, o.n2, &row);
    o.ms = 0.0;
    for (size_t c = 0; c < width; ++c) o.ms += truth[c] * row[c];
    o.ms *= rng.LognormalNoise(0.02);
    obs.push_back(o);
  }
  auto snap = FeatureSnapshot::Fit(obs);
  ASSERT_TRUE(snap.ok());
  // Prediction at fresh points within 10%.
  for (int i = 0; i < 20; ++i) {
    double n = rng.Uniform(50, 20000), n2 = rng.Uniform(10, 500);
    std::array<double, kSnapshotWidth> row;
    size_t width = FeatureSnapshot::DesignRow(op, n, n2, &row);
    double truth_ms = 0.0;
    for (size_t c = 0; c < width; ++c) truth_ms += truth[c] * row[c];
    EXPECT_NEAR(snap->PredictMs(op, n, n2), truth_ms, 0.10 * truth_ms + 1e-9)
        << OpTypeName(op);
  }
}

INSTANTIATE_TEST_SUITE_P(AllOps, SnapshotOpSweep,
                         ::testing::ValuesIn(AllOpTypes()),
                         [](const ::testing::TestParamInfo<OpType>& info) {
                           std::string name = OpTypeName(info.param);
                           name.erase(
                               std::remove(name.begin(), name.end(), ' '),
                               name.end());
                           return name;
                         });

/// Reduction invariant across algorithms: dims that never vary in D are
/// never kept by FR, and every algorithm returns a valid subset.
class ReductionAlgoSweep
    : public ::testing::TestWithParam<ReductionAlgorithm> {};

TEST_P(ReductionAlgoSweep, KeptSetsAreValidSubsets) {
  static std::unique_ptr<Database> db;
  static std::unique_ptr<BaseFeaturizer> featurizer;
  static std::unique_ptr<QppNet> model;
  static std::vector<PlanSample> train;
  static LabeledQuerySet corpus;
  if (db == nullptr) {
    auto bench = MakeBenchmark("sysbench");
    db = (*bench)->BuildDatabase(0.03, 71);
    static auto envs = EnvironmentSampler::Sample(2, HardwareProfile::H1(), 73);
    QueryCollector collector(db.get(), &envs);
    auto c = collector.Collect((*bench)->Templates(), 150, 79);
    ASSERT_TRUE(c.ok());
    corpus = std::move(c.value());
    for (const auto& q : corpus.queries) {
      train.push_back({q.plan.get(), q.env_id, q.total_ms});
    }
    featurizer = std::make_unique<BaseFeaturizer>(db->catalog());
    model = std::make_unique<QppNet>(featurizer.get(), QppNetConfig{}, 83);
    TrainConfig tc;
    tc.epochs = 8;
    ASSERT_TRUE(model->Train(train, tc, nullptr).ok());
  }
  ReductionConfig cfg;
  cfg.algorithm = GetParam();
  cfg.greedy_max_rows = 80;
  auto result = ReduceFeatures(*model, train, cfg);
  ASSERT_TRUE(result.ok());
  for (const auto& [op, r] : result->per_op) {
    EXPECT_LE(r.kept.size(), r.original_dim);
    EXPECT_EQ(r.kept.size() + r.dropped, r.original_dim);
    std::set<size_t> uniq(r.kept.begin(), r.kept.end());
    EXPECT_EQ(uniq.size(), r.kept.size());
    for (size_t k : r.kept) EXPECT_LT(k, r.original_dim);
    EXPECT_FALSE(r.kept.empty());
  }
  EXPECT_GE(result->ReductionRatio(), 0.0);
  EXPECT_LE(result->ReductionRatio(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, ReductionAlgoSweep,
                         ::testing::Values(ReductionAlgorithm::kGreedy,
                                           ReductionAlgorithm::kGradient,
                                           ReductionAlgorithm::kDiffProp));

}  // namespace
}  // namespace qcfe
