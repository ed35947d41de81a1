/// Tests for src/featurize: schema naming/groups, operator encoding content
/// (one-hot placement, numerics, padding), plan-time-only information, and
/// masked featurizers.

#include <gtest/gtest.h>

#include <algorithm>

#include "engine/database.h"
#include "featurize/featurizer.h"
#include "featurize/operator_encoder.h"
#include "sql/parser.h"
#include "util/rng.h"
#include "workload/benchmark.h"

namespace qcfe {
namespace {

/// Indices of the dimensions whose name starts with `prefix` (a feature
/// group, e.g. "table=" or "pad.").
std::vector<size_t> Group(const FeatureSchema& s, const std::string& prefix) {
  std::vector<size_t> out;
  for (size_t i = 0; i < s.size(); ++i) {
    if (s.name(i).compare(0, prefix.size(), prefix) == 0) out.push_back(i);
  }
  return out;
}

/// The value of the named dimension in `x` (throws, failing the test, if
/// the schema has no such name).
double At(const std::vector<double>& x, const FeatureSchema& s,
          const std::string& name) {
  auto it = std::find(s.names().begin(), s.names().end(), name);
  return x.at(static_cast<size_t>(it - s.names().begin()));
}

struct Fixture {
  std::unique_ptr<Database> db;
  Environment env;

  Fixture() {
    auto bench = MakeBenchmark("tpch");
    db = (*bench)->BuildDatabase(0.03, 21);
    env.hardware = HardwareProfile::H1();
  }

  std::unique_ptr<PlanNode> PlanOf(const std::string& sql) {
    auto spec = ParseQuery(sql);
    EXPECT_TRUE(spec.ok()) << spec.status().ToString();
    auto plan = db->Plan(*spec, env.knobs);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return std::move(plan.value());
  }
};

TEST(FeatureSchemaTest, AddAssignsIndicesInOrder) {
  FeatureSchema s;
  EXPECT_EQ(s.Add("a.one"), 0u);
  EXPECT_EQ(s.Add("a.two"), 1u);
  EXPECT_EQ(s.Add("b.one"), 2u);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.name(1), "a.two");
  EXPECT_EQ(s.names(), (std::vector<std::string>{"a.one", "a.two", "b.one"}));
}

TEST(OperatorEncoderTest, SchemaHasAllBlocks) {
  Fixture fx;
  OperatorEncoder enc(fx.db->catalog());
  const FeatureSchema& s = enc.schema();
  EXPECT_FALSE(Group(s, "op=").empty());
  EXPECT_FALSE(Group(s, "table=").empty());
  EXPECT_FALSE(Group(s, "idx=").empty());
  EXPECT_FALSE(Group(s, "filtercol=").empty());
  EXPECT_FALSE(Group(s, "predop=").empty());
  EXPECT_FALSE(Group(s, "jointable=").empty());
  EXPECT_FALSE(Group(s, "num.").empty());
  EXPECT_FALSE(Group(s, "pad.").empty());
  EXPECT_EQ(Group(s, "op=").size(), kNumOpTypes);
  EXPECT_EQ(enc.dim(), s.size());
  // The fixed-width layout deliberately includes unused slots.
  EXPECT_FALSE(Group(s, "table=unused").empty());
}

TEST(OperatorEncoderTest, ScanEncodingSetsExpectedBits) {
  Fixture fx;
  OperatorEncoder enc(fx.db->catalog());
  auto plan = fx.PlanOf(
      "select * from lineitem where lineitem.l_quantity > 10");
  ASSERT_EQ(plan->op, OpType::kSeqScan);
  auto x = enc.Encode(*plan, 0);
  const FeatureSchema& s = enc.schema();
  EXPECT_EQ(At(x, s, "op=Seq Scan"), 1.0);
  EXPECT_EQ(At(x, s, "table=lineitem"), 1.0);
  EXPECT_EQ(At(x, s, "filtercol=lineitem.l_quantity"), 1.0);
  EXPECT_EQ(At(x, s, "predop=>"), 1.0);
  EXPECT_GT(At(x, s, "num.log_est_rows"), 0.0);
  // Other tables stay zero.
  EXPECT_EQ(At(x, s, "table=orders"), 0.0);
  // Padding always zero.
  for (size_t i : Group(s, "pad.")) EXPECT_EQ(x[i], 0.0);
}

TEST(OperatorEncoderTest, IndexScanSetsIndexBit) {
  Fixture fx;
  OperatorEncoder enc(fx.db->catalog());
  auto plan = fx.PlanOf(
      "select * from orders where orders.o_orderkey = 5");
  ASSERT_EQ(plan->op, OpType::kIndexScan);
  auto x = enc.Encode(*plan, 0);
  const FeatureSchema& s = enc.schema();
  EXPECT_EQ(At(x, s, "op=Index Scan"), 1.0);
  EXPECT_EQ(At(x, s, "idx=orders.o_orderkey"), 1.0);
}

TEST(OperatorEncoderTest, JoinEncodingSetsJoinTables) {
  Fixture fx;
  OperatorEncoder enc(fx.db->catalog());
  auto plan = fx.PlanOf(
      "select count(*) from orders join lineitem on orders.o_orderkey = "
      "lineitem.l_orderkey");
  // Root is the aggregate; its child is the join.
  ASSERT_EQ(plan->op, OpType::kAggregate);
  const PlanNode* join = plan->child(0);
  ASSERT_TRUE(join->join.has_value());
  auto x = enc.Encode(*join, 1);
  const FeatureSchema& s = enc.schema();
  EXPECT_EQ(At(x, s, "jointable=orders"), 1.0);
  EXPECT_EQ(At(x, s, "jointable=lineitem"), 1.0);
  EXPECT_EQ(At(x, s, "num.depth"), 1.0);
  // Aggregate node encodes its aggregate counts.
  auto xa = enc.Encode(*plan, 0);
  EXPECT_EQ(At(xa, s, "num.agg_count"), 1.0);
}

TEST(OperatorEncoderTest, UsesOnlyPlanTimeInformation) {
  Fixture fx;
  OperatorEncoder enc(fx.db->catalog());
  auto plan = fx.PlanOf("select * from customer where customer.c_acctbal > 0");
  auto before = enc.Encode(*plan, 0);
  // Mutating execution artifacts must not change the encoding.
  plan->actual_rows = 12345;
  plan->actual_ms = 99.0;
  plan->work.tuples = 777;
  auto after = enc.Encode(*plan, 0);
  EXPECT_EQ(before, after);
}

TEST(BaseFeaturizerTest, SameWidthForAllOps) {
  Fixture fx;
  BaseFeaturizer f(fx.db->catalog());
  size_t d = f.dim(OpType::kSeqScan);
  for (OpType op : AllOpTypes()) {
    EXPECT_EQ(f.dim(op), d);
    EXPECT_EQ(f.schema(op).size(), d);
  }
}

TEST(MaskedFeaturizerTest, MasksPerOpType) {
  Fixture fx;
  BaseFeaturizer base(fx.db->catalog());
  std::map<OpType, std::vector<size_t>> kept;
  kept[OpType::kSeqScan] = {0, 2, 5};
  MaskedFeaturizer masked(&base, kept);
  EXPECT_EQ(masked.dim(OpType::kSeqScan), 3u);
  // Unlisted types keep full width.
  EXPECT_EQ(masked.dim(OpType::kSort), base.dim(OpType::kSort));
  // Schema names follow the kept columns.
  EXPECT_EQ(masked.schema(OpType::kSeqScan).name(1), base.schema(OpType::kSeqScan).name(2));
}

TEST(MaskedFeaturizerTest, EncodeProjectsValues) {
  Fixture fx;
  BaseFeaturizer base(fx.db->catalog());
  auto plan = fx.PlanOf("select * from nation where nation.n_regionkey = 2");
  auto full = base.Encode(*plan, 0, 0);
  std::map<OpType, std::vector<size_t>> kept;
  std::vector<size_t> cols = {1, 3, 7, 20};
  for (OpType op : AllOpTypes()) kept[op] = cols;
  MaskedFeaturizer masked(&base, kept);
  auto small = masked.Encode(*plan, 0, 0);
  ASSERT_EQ(small.size(), cols.size());
  for (size_t i = 0; i < cols.size(); ++i) {
    EXPECT_EQ(small[i], full[cols[i]]);
  }
}

}  // namespace
}  // namespace qcfe
