/// Unit + property tests for src/engine: value model, B+-tree, tables,
/// statistics, predicates, planner decisions, executor correctness (checked
/// against brute-force evaluation), the cost simulator's environment
/// sensitivity, and the Database facade with its execution cache.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "engine/btree.h"
#include "engine/catalog.h"
#include "engine/cost_simulator.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "engine/knobs.h"
#include "engine/plan.h"
#include "engine/planner.h"
#include "engine/predicate.h"
#include "engine/query.h"
#include "engine/stats.h"
#include "engine/table.h"
#include "engine/types.h"
#include "util/rng.h"

namespace qcfe {
namespace {

// ---------------------------------------------------------------- fixtures

/// Builds a small two-table database:
///   t1(id int pk, grp int 0..9, val float, name string), 1000 rows
///   t2(id int, t1_id int fk->t1.id, amount float), 3000 rows
/// with indexes on t1.id and t2.t1_id.
std::unique_ptr<Database> MakeTestDb() {
  auto db = std::make_unique<Database>("testdb");
  Rng rng(99);

  auto t1 = std::make_unique<Table>(
      "t1", Schema({{"id", DataType::kInt64},
                    {"grp", DataType::kInt64},
                    {"val", DataType::kFloat64},
                    {"name", DataType::kString}}));
  for (int64_t i = 0; i < 1000; ++i) {
    std::string name = (i % 7 == 0) ? "alpha" + std::to_string(i)
                                    : "beta" + std::to_string(i);
    EXPECT_TRUE(t1->AppendRow({Value(i), Value(i % 10),
                               Value(rng.Uniform(0.0, 100.0)), Value(name)})
                    .ok());
  }
  EXPECT_TRUE(t1->BuildIndex("id").ok());
  EXPECT_TRUE(db->catalog()->AddTable(std::move(t1)).ok());

  auto t2 = std::make_unique<Table>(
      "t2", Schema({{"id", DataType::kInt64},
                    {"t1_id", DataType::kInt64},
                    {"amount", DataType::kFloat64}}));
  for (int64_t i = 0; i < 3000; ++i) {
    EXPECT_TRUE(t2->AppendRow({Value(i), Value(rng.UniformInt(0, 999)),
                               Value(rng.Uniform(0.0, 1000.0))})
                    .ok());
  }
  EXPECT_TRUE(t2->BuildIndex("t1_id").ok());
  EXPECT_TRUE(db->catalog()->AddTable(std::move(t2)).ok());

  db->Analyze();
  return db;
}

Predicate MakePred(const std::string& table, const std::string& col,
                   CompareOp op, std::vector<Value> lits) {
  Predicate p;
  p.column = {table, col};
  p.op = op;
  p.literals = std::move(lits);
  return p;
}

Environment DefaultEnv() {
  Environment env;
  env.hardware = HardwareProfile::H1();
  return env;
}

// ------------------------------------------------------------------- types

TEST(TypesTest, CompareNumericCrossType) {
  EXPECT_EQ(CompareValues(Value(int64_t{3}), Value(3.0)), 0);
  EXPECT_LT(CompareValues(Value(int64_t{2}), Value(2.5)), 0);
  EXPECT_GT(CompareValues(Value(3.5), Value(int64_t{3})), 0);
}

TEST(TypesTest, CompareStrings) {
  EXPECT_LT(CompareValues(Value(std::string("abc")), Value(std::string("abd"))), 0);
  EXPECT_EQ(CompareValues(Value(std::string("x")), Value(std::string("x"))), 0);
}

TEST(TypesTest, MixedTypeComparisonIsDeterministic) {
  EXPECT_LT(CompareValues(Value(int64_t{5}), Value(std::string("a"))), 0);
  EXPECT_GT(CompareValues(Value(std::string("a")), Value(int64_t{5})), 0);
}

TEST(TypesTest, HashIntegralDoubleMatchesInt) {
  // Cross-type equi-join keys must hash consistently.
  EXPECT_EQ(HashValue(Value(int64_t{42})), HashValue(Value(42.0)));
  EXPECT_NE(HashValue(Value(int64_t{42})), HashValue(Value(int64_t{43})));
}

TEST(TypesTest, ValueToStringForms) {
  EXPECT_EQ(ValueToString(Value(int64_t{7})), "7");
  EXPECT_EQ(ValueToString(Value(std::string("hi"))), "'hi'");
}

TEST(TypesTest, WidthsArePositive) {
  EXPECT_EQ(DataTypeWidth(DataType::kInt64), 8u);
  EXPECT_GT(DataTypeWidth(DataType::kString), 8u);
}

// ------------------------------------------------------------------ btree

TEST(BTreeTest, BulkLoadAndPointLookup) {
  BPlusTree tree;
  std::vector<std::pair<double, uint32_t>> entries;
  for (uint32_t i = 0; i < 1000; ++i) {
    entries.emplace_back(static_cast<double>(999 - i), i);
  }
  tree.BulkLoad(std::move(entries));
  EXPECT_EQ(tree.size(), 1000u);
  EXPECT_EQ(tree.height(), 2u);  // 16 leaves under one root
  std::vector<uint32_t> out;
  tree.RangeScan(500.0, true, 500.0, true, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 499u);  // key 500 was loaded with row id 999-500
}

TEST(BTreeTest, RangeScanInclusiveExclusive) {
  BPlusTree tree;
  std::vector<std::pair<double, uint32_t>> entries;
  for (uint32_t i = 0; i < 100; ++i) entries.emplace_back(i, i);
  tree.BulkLoad(std::move(entries));

  std::vector<uint32_t> out;
  tree.RangeScan(10.0, true, 20.0, true, &out);
  EXPECT_EQ(out.size(), 11u);
  out.clear();
  tree.RangeScan(10.0, false, 20.0, false, &out);
  EXPECT_EQ(out.size(), 9u);
  // Results come back in key order.
  out.clear();
  tree.RangeScan(0.0, true, 99.0, true, &out);
  ASSERT_EQ(out.size(), 100u);
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
}

TEST(BTreeTest, OneSidedRanges) {
  BPlusTree tree;
  std::vector<std::pair<double, uint32_t>> entries;
  for (uint32_t i = 0; i < 50; ++i) entries.emplace_back(i, i);
  tree.BulkLoad(std::move(entries));
  std::vector<uint32_t> out;
  tree.RangeScan(-HUGE_VAL, true, 9.0, true, &out);
  EXPECT_EQ(out.size(), 10u);
  out.clear();
  tree.RangeScan(40.0, true, HUGE_VAL, true, &out);
  EXPECT_EQ(out.size(), 10u);
}

TEST(BTreeTest, DuplicateKeys) {
  // Keys 0, 1, 2 a hundred times each: sorted, key 1 fills positions
  // 100..199, a run that crosses the leaf boundary at 128 and repeats as
  // the separator of the next two leaves. Only a lower_bound descent
  // enters the run at its leftmost leaf and finds all of it.
  BPlusTree tree;
  std::vector<std::pair<double, uint32_t>> entries;
  for (uint32_t i = 0; i < 300; ++i) entries.emplace_back(i % 3, i);
  tree.BulkLoad(std::move(entries));
  std::vector<uint32_t> out;
  tree.RangeScan(1.0, true, 1.0, true, &out);
  EXPECT_EQ(out.size(), 100u);
  for (uint32_t row : out) EXPECT_EQ(row % 3, 1u);
}

TEST(BTreeTest, BulkLoadRandomKeysStaysSearchable) {
  BPlusTree tree;
  Rng rng(5);
  std::vector<std::pair<double, uint32_t>> entries;
  for (uint32_t i = 0; i < 5000; ++i) {
    entries.emplace_back(rng.Uniform(0, 1000), i);
  }
  tree.BulkLoad(entries);
  EXPECT_EQ(tree.size(), 5000u);
  EXPECT_GT(tree.height(), 1u);
  // Every loaded key must be findable.
  for (size_t i = 0; i < 100; ++i) {
    std::vector<uint32_t> out;
    tree.RangeScan(entries[i].first, true, entries[i].first, true, &out);
    EXPECT_NE(std::find(out.begin(), out.end(), entries[i].second), out.end());
  }
  // Full scan returns everything in key order.
  std::vector<uint32_t> all;
  tree.RangeScan(-HUGE_VAL, true, HUGE_VAL, true, &all);
  ASSERT_EQ(all.size(), 5000u);
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_LE(entries[all[i - 1]].first, entries[all[i]].first);
  }
}

TEST(BTreeTest, EmptyTreeScansReturnNothing) {
  BPlusTree tree;
  std::vector<uint32_t> out;
  tree.RangeScan(-HUGE_VAL, true, HUGE_VAL, true, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(tree.size(), 0u);
}

// ------------------------------------------------------------------ schema

TEST(SchemaTest, FindColumnExactAndSuffix) {
  Schema s({{"t1.id", DataType::kInt64}, {"t1.val", DataType::kFloat64}});
  EXPECT_EQ(s.FindColumn("t1.id"), 0u);
  EXPECT_EQ(s.FindColumn("val"), 1u);
  EXPECT_FALSE(s.FindColumn("missing").has_value());
}

TEST(SchemaTest, SuffixAmbiguityReturnsNothing) {
  Schema s({{"a.id", DataType::kInt64}, {"b.id", DataType::kInt64}});
  EXPECT_FALSE(s.FindColumn("id").has_value());
  EXPECT_EQ(s.FindColumn("a.id"), 0u);
}

TEST(SchemaTest, RowWidthAndConcat) {
  Schema a({{"x", DataType::kInt64}});
  Schema b({{"y", DataType::kString}});
  EXPECT_EQ(a.RowWidth(), 8u);
  Schema c = Schema::Concat(a, b);
  EXPECT_EQ(c.num_columns(), 2u);
  EXPECT_EQ(c.RowWidth(), 8u + DataTypeWidth(DataType::kString));
}

// ------------------------------------------------------------------- table

TEST(TableTest, AppendAndRead) {
  Table t("x", Schema({{"a", DataType::kInt64}, {"b", DataType::kString}}));
  ASSERT_TRUE(t.AppendRow({Value(int64_t{1}), Value(std::string("one"))}).ok());
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(std::get<int64_t>(t.GetValue(0, 0)), 1);
  EXPECT_EQ(std::get<std::string>(t.GetValue(0, 1)), "one");
}

TEST(TableTest, ArityAndTypeErrors) {
  Table t("x", Schema({{"a", DataType::kInt64}}));
  EXPECT_FALSE(t.AppendRow({}).ok());
  EXPECT_FALSE(t.AppendRow({Value(std::string("not an int"))}).ok());
  // Numeric coercion is allowed.
  EXPECT_TRUE(t.AppendRow({Value(2.0)}).ok());
  EXPECT_EQ(std::get<int64_t>(t.GetValue(0, 0)), 2);
}

TEST(TableTest, PagesGrowWithRows) {
  Table t("x", Schema({{"a", DataType::kInt64}}));
  for (int64_t i = 0; i < 10000; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(i)}).ok());
  }
  EXPECT_GE(t.num_pages(), 9u);  // 80KB / 8KB pages
}

TEST(TableTest, IndexBuildAndLookup) {
  Table t("x", Schema({{"a", DataType::kInt64}}));
  for (int64_t i = 0; i < 100; ++i) ASSERT_TRUE(t.AppendRow({Value(i)}).ok());
  ASSERT_TRUE(t.BuildIndex("a").ok());
  const TableIndex* idx = t.FindIndex("a");
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(idx->tree->size(), 100u);
  EXPECT_FALSE(t.BuildIndex("zzz").ok());
  EXPECT_EQ(t.FindIndex("zzz"), nullptr);
}

// ------------------------------------------------------------------- stats

TEST(StatsTest, AnalyzeBasics) {
  auto db = MakeTestDb();
  const TableStats* ts = db->catalog()->GetStats("t1");
  ASSERT_NE(ts, nullptr);
  EXPECT_EQ(ts->num_rows, 1000u);
  const ColumnStats& id = ts->columns.at("id");
  EXPECT_DOUBLE_EQ(id.min, 0.0);
  EXPECT_DOUBLE_EQ(id.max, 999.0);
  EXPECT_EQ(id.n_distinct, 1000u);
  const ColumnStats& grp = ts->columns.at("grp");
  EXPECT_EQ(grp.n_distinct, 10u);
}

TEST(StatsTest, FractionBelowIsMonotonic) {
  auto db = MakeTestDb();
  const ColumnStats& id = db->catalog()->GetStats("t1")->columns.at("id");
  double prev = -1.0;
  for (double x = 0; x <= 1000; x += 50) {
    double f = id.FractionBelow(x);
    EXPECT_GE(f, prev);
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
    prev = f;
  }
  EXPECT_DOUBLE_EQ(id.FractionBelow(-5), 0.0);
  EXPECT_DOUBLE_EQ(id.FractionBelow(2000), 1.0);
}

TEST(StatsTest, UniformSelectivityIsAccurate) {
  auto db = MakeTestDb();
  const ColumnStats& id = db->catalog()->GetStats("t1")->columns.at("id");
  // id < 250 over uniform 0..999 -> ~25%.
  EXPECT_NEAR(id.EstimateSelectivity(-1, 250.0), 0.25, 0.05);
  // equality on a unique column -> 1/1000.
  EXPECT_NEAR(id.EstimateSelectivity(0, 10.0), 0.001, 1e-6);
}

TEST(StatsTest, SamplesAreFromTheColumn) {
  auto db = MakeTestDb();
  const ColumnStats& grp = db->catalog()->GetStats("t1")->columns.at("grp");
  EXPECT_FALSE(grp.sample.empty());
  for (const auto& v : grp.sample) {
    int64_t x = std::get<int64_t>(v);
    EXPECT_GE(x, 0);
    EXPECT_LE(x, 9);
  }
}

// --------------------------------------------------------------- predicate

TEST(PredicateTest, AllOperatorsMatchCorrectly) {
  Value v(int64_t{5});
  EXPECT_TRUE(MakePred("t", "c", CompareOp::kEq, {Value(int64_t{5})}).Matches(v));
  EXPECT_TRUE(MakePred("t", "c", CompareOp::kNe, {Value(int64_t{4})}).Matches(v));
  EXPECT_TRUE(MakePred("t", "c", CompareOp::kLt, {Value(int64_t{6})}).Matches(v));
  EXPECT_FALSE(MakePred("t", "c", CompareOp::kLt, {Value(int64_t{5})}).Matches(v));
  EXPECT_TRUE(MakePred("t", "c", CompareOp::kLe, {Value(int64_t{5})}).Matches(v));
  EXPECT_TRUE(MakePred("t", "c", CompareOp::kGt, {Value(int64_t{4})}).Matches(v));
  EXPECT_TRUE(MakePred("t", "c", CompareOp::kGe, {Value(int64_t{5})}).Matches(v));
  EXPECT_TRUE(MakePred("t", "c", CompareOp::kIn,
                       {Value(int64_t{1}), Value(int64_t{5})})
                  .Matches(v));
  EXPECT_FALSE(MakePred("t", "c", CompareOp::kIn, {Value(int64_t{1})}).Matches(v));
  EXPECT_TRUE(MakePred("t", "c", CompareOp::kBetween,
                       {Value(int64_t{0}), Value(int64_t{9})})
                  .Matches(v));
  EXPECT_FALSE(MakePred("t", "c", CompareOp::kBetween,
                        {Value(int64_t{6}), Value(int64_t{9})})
                   .Matches(v));
}

TEST(PredicateTest, LikePatterns) {
  EXPECT_TRUE(LikeMatch("hello world", "hello%"));
  EXPECT_TRUE(LikeMatch("hello world", "%world"));
  EXPECT_TRUE(LikeMatch("hello world", "%lo wo%"));
  EXPECT_TRUE(LikeMatch("hello world", "hello world"));
  EXPECT_FALSE(LikeMatch("hello world", "world%"));
  EXPECT_FALSE(LikeMatch("hello world", "%xyz%"));
  EXPECT_TRUE(LikeMatch("abc", "%"));
  Value v(std::string("alpha42"));
  EXPECT_TRUE(MakePred("t", "c", CompareOp::kLike,
                       {Value(std::string("alpha%"))})
                  .Matches(v));
}

TEST(PredicateTest, ToStringRendersSql) {
  auto p = MakePred("t1", "id", CompareOp::kBetween,
                    {Value(int64_t{1}), Value(int64_t{9})});
  EXPECT_EQ(p.ToString(), "t1.id between 1 and 9");
  auto q = MakePred("t1", "id", CompareOp::kIn,
                    {Value(int64_t{1}), Value(int64_t{2})});
  EXPECT_EQ(q.ToString(), "t1.id in (1, 2)");
}

// ----------------------------------------------------------------- planner

TEST(PlannerTest, ChoosesIndexScanForSelectivePredicate) {
  auto db = MakeTestDb();
  QuerySpec q;
  q.tables = {"t1"};
  q.filters = {MakePred("t1", "id", CompareOp::kEq, {Value(int64_t{5})})};
  auto plan = db->Plan(q, Knobs{});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value()->op, OpType::kIndexScan);
  EXPECT_EQ(plan.value()->index_column, "id");
}

TEST(PlannerTest, ChoosesSeqScanForUnselectivePredicate) {
  auto db = MakeTestDb();
  QuerySpec q;
  q.tables = {"t1"};
  q.filters = {MakePred("t1", "id", CompareOp::kGt, {Value(int64_t{5})})};
  auto plan = db->Plan(q, Knobs{});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value()->op, OpType::kSeqScan);
}

TEST(PlannerTest, EnableIndexscanOffForcesSeqScan) {
  auto db = MakeTestDb();
  QuerySpec q;
  q.tables = {"t1"};
  q.filters = {MakePred("t1", "id", CompareOp::kEq, {Value(int64_t{5})})};
  Knobs k;
  k.enable_indexscan = false;
  auto plan = db->Plan(q, k);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value()->op, OpType::kSeqScan);
}

TEST(PlannerTest, JoinUsesHashByDefault) {
  auto db = MakeTestDb();
  QuerySpec q;
  q.tables = {"t1", "t2"};
  q.joins = {{{"t1", "id"}, {"t2", "t1_id"}}};
  auto plan = db->Plan(q, Knobs{});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value()->op, OpType::kHashJoin);
}

TEST(PlannerTest, DisablingHashAndNestloopYieldsMergeJoinWithSorts) {
  auto db = MakeTestDb();
  QuerySpec q;
  q.tables = {"t1", "t2"};
  q.joins = {{{"t1", "id"}, {"t2", "t1_id"}}};
  Knobs k;
  k.enable_hashjoin = false;
  k.enable_nestloop = false;
  auto plan = db->Plan(q, k);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value()->op, OpType::kMergeJoin);
  // Each merge input must be sorted: Sort node or key-ordered index scan.
  for (size_t i = 0; i < 2; ++i) {
    const PlanNode* c = plan.value()->child(i);
    EXPECT_TRUE(c->op == OpType::kSort || c->op == OpType::kIndexScan)
        << OpTypeName(c->op);
  }
}

TEST(PlannerTest, AggregationAddsAggregateNode) {
  auto db = MakeTestDb();
  QuerySpec q;
  q.tables = {"t1"};
  q.group_by = {{"t1", "grp"}};
  Aggregate a;
  a.kind = Aggregate::Kind::kCount;
  q.aggregates = {a};
  auto plan = db->Plan(q, Knobs{});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value()->op, OpType::kAggregate);
  EXPECT_NEAR(plan.value()->est_rows, 10.0, 5.0);
}

TEST(PlannerTest, OrderByAddsSortNode) {
  auto db = MakeTestDb();
  QuerySpec q;
  q.tables = {"t1"};
  q.order_by = {{{"t1", "val"}, false}};
  auto plan = db->Plan(q, Knobs{});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value()->op, OpType::kSort);
}

TEST(PlannerTest, DisconnectedJoinGraphIsRejected) {
  auto db = MakeTestDb();
  QuerySpec q;
  q.tables = {"t1", "t2"};  // no join condition
  auto plan = db->Plan(q, Knobs{});
  EXPECT_FALSE(plan.ok());
}

TEST(PlannerTest, UnknownTableIsRejected) {
  auto db = MakeTestDb();
  QuerySpec q;
  q.tables = {"nope"};
  EXPECT_FALSE(db->Plan(q, Knobs{}).ok());
}

TEST(PlannerTest, EstimatesRowsForRangeFilter) {
  auto db = MakeTestDb();
  QuerySpec q;
  q.tables = {"t1"};
  q.filters = {MakePred("t1", "id", CompareOp::kLt, {Value(int64_t{100})})};
  auto plan = db->Plan(q, Knobs{});
  ASSERT_TRUE(plan.ok());
  EXPECT_NEAR(plan.value()->est_rows, 100.0, 40.0);
}

TEST(PlannerTest, CostGrowsWithPlanSize) {
  auto db = MakeTestDb();
  QuerySpec scan;
  scan.tables = {"t1"};
  QuerySpec join;
  join.tables = {"t1", "t2"};
  join.joins = {{{"t1", "id"}, {"t2", "t1_id"}}};
  auto p1 = db->Plan(scan, Knobs{});
  auto p2 = db->Plan(join, Knobs{});
  ASSERT_TRUE(p1.ok() && p2.ok());
  EXPECT_GT(p2.value()->est_cost, p1.value()->est_cost);
}

// ---------------------------------------------------------------- executor

TEST(ExecutorTest, SeqScanFilterMatchesBruteForce) {
  auto db = MakeTestDb();
  QuerySpec q;
  q.tables = {"t1"};
  q.filters = {MakePred("t1", "grp", CompareOp::kEq, {Value(int64_t{3})})};
  Environment env = DefaultEnv();
  Rng rng(1);
  QueryRunResult run;
  auto rel = db->ExecuteForResult(q, env, &rng, &run);
  ASSERT_TRUE(rel.ok());
  // 1000 rows, grp = i % 10 -> exactly 100 matches.
  EXPECT_EQ(rel.value().NumRows(), 100u);
}

TEST(ExecutorTest, IndexScanEqualsSeqScanResults) {
  auto db = MakeTestDb();
  // A point query on the indexed unique column: cheap enough that the
  // planner picks the index path on this small table.
  QuerySpec q;
  q.tables = {"t1"};
  q.filters = {MakePred("t1", "id", CompareOp::kEq, {Value(int64_t{123})})};
  Environment env = DefaultEnv();
  Rng rng(1);

  QueryRunResult run_idx;
  auto rel_idx = db->ExecuteForResult(q, env, &rng, &run_idx);
  ASSERT_TRUE(rel_idx.ok());
  ASSERT_EQ(run_idx.plan->op, OpType::kIndexScan);

  Environment no_idx = env;
  no_idx.knobs.enable_indexscan = false;
  QueryRunResult run_seq;
  auto rel_seq = db->ExecuteForResult(q, no_idx, &rng, &run_seq);
  ASSERT_TRUE(rel_seq.ok());
  ASSERT_EQ(run_seq.plan->op, OpType::kSeqScan);

  ASSERT_EQ(rel_idx.value().NumRows(), 1u);
  ASSERT_EQ(rel_seq.value().NumRows(), 1u);
  // Same row retrieved either way.
  EXPECT_EQ(std::get<int64_t>(rel_idx.value().rows[0][0]),
            std::get<int64_t>(rel_seq.value().rows[0][0]));
}

TEST(ExecutorTest, IndexRangeScanEqualsSeqScanWhenForced) {
  auto db = MakeTestDb();
  // Force the range through the index by making seq scan unattractive.
  QuerySpec q;
  q.tables = {"t1"};
  q.filters = {MakePred("t1", "id", CompareOp::kBetween,
                        {Value(int64_t{100}), Value(int64_t{149})})};
  Environment idx_env = DefaultEnv();
  idx_env.knobs.seq_page_cost = 1000.0;
  idx_env.knobs.cpu_tuple_cost = 10.0;
  idx_env.knobs.random_page_cost = 0.01;
  Rng rng(1);
  QueryRunResult run_idx;
  auto rel_idx = db->ExecuteForResult(q, idx_env, &rng, &run_idx);
  ASSERT_TRUE(rel_idx.ok());
  ASSERT_EQ(run_idx.plan->op, OpType::kIndexScan);
  EXPECT_EQ(rel_idx.value().NumRows(), 50u);

  Environment seq_env = DefaultEnv();
  seq_env.knobs.enable_indexscan = false;
  QueryRunResult run_seq;
  auto rel_seq = db->ExecuteForResult(q, seq_env, &rng, &run_seq);
  ASSERT_TRUE(rel_seq.ok());
  EXPECT_EQ(rel_seq.value().NumRows(), 50u);
}

// Two range predicates on the index column, in both orders: the probe
// range must keep the stricter bound on each side together with that
// bound's own inclusiveness (`id > 100 AND id = 123` probes [123, 123],
// not (123, 123]), so the forced index path returns what a seq scan does.
TEST(ExecutorTest, IndexRangeBoundMergeEqualsSeqScan) {
  auto db = MakeTestDb();
  auto id = [](CompareOp op, int64_t v) {
    return MakePred("t1", "id", op, {Value(v)});
  };
  const std::vector<Predicate> preds = {
      id(CompareOp::kEq, 123),  id(CompareOp::kEq, 120),
      id(CompareOp::kGt, 100),  id(CompareOp::kGt, 120),
      id(CompareOp::kGe, 100),  id(CompareOp::kGe, 120),
      id(CompareOp::kLt, 150),  id(CompareOp::kLt, 120),
      id(CompareOp::kLe, 120),  id(CompareOp::kLe, 150),
      MakePred("t1", "id", CompareOp::kBetween,
               {Value(int64_t{110}), Value(int64_t{130})}),
      MakePred("t1", "id", CompareOp::kBetween,
               {Value(int64_t{120}), Value(int64_t{125})}),
  };
  Environment idx_env = DefaultEnv();
  idx_env.knobs.seq_page_cost = 1000.0;
  idx_env.knobs.cpu_tuple_cost = 10.0;
  idx_env.knobs.random_page_cost = 0.01;
  Environment seq_env = DefaultEnv();
  seq_env.knobs.enable_indexscan = false;
  Rng rng(1);
  for (size_t i = 0; i < preds.size(); ++i) {
    for (size_t j = 0; j < preds.size(); ++j) {
      if (i == j) continue;
      QuerySpec q;
      q.tables = {"t1"};
      q.filters = {preds[i], preds[j]};
      const std::string what = preds[i].ToString() + " and " +
                               preds[j].ToString();
      QueryRunResult run_idx;
      auto rel_idx = db->ExecuteForResult(q, idx_env, &rng, &run_idx);
      ASSERT_TRUE(rel_idx.ok()) << what;
      ASSERT_EQ(run_idx.plan->op, OpType::kIndexScan) << what;
      QueryRunResult run_seq;
      auto rel_seq = db->ExecuteForResult(q, seq_env, &rng, &run_seq);
      ASSERT_TRUE(rel_seq.ok()) << what;
      ASSERT_EQ(run_seq.plan->op, OpType::kSeqScan) << what;
      EXPECT_EQ(rel_idx.value().NumRows(), rel_seq.value().NumRows()) << what;
    }
  }
}

// Scan filters run against the typed columns without building Values; they
// must keep exactly the rows Predicate::Matches keeps, for every operator,
// every column type and mixed-type (number vs string) literals.
TEST(ExecutorTest, ScanFiltersMatchPredicateOnEveryColumnType) {
  auto db = MakeTestDb();
  auto i64 = [](int64_t v) { return Value(v); };
  auto str = [](const char* v) { return Value(std::string(v)); };
  const std::vector<Predicate> preds = {
      MakePred("t1", "grp", CompareOp::kEq, {i64(5)}),
      MakePred("t1", "grp", CompareOp::kNe, {i64(5)}),
      MakePred("t1", "grp", CompareOp::kLt, {Value(4.5)}),
      MakePred("t1", "grp", CompareOp::kBetween, {i64(2), Value(6.0)}),
      MakePred("t1", "grp", CompareOp::kIn, {i64(1), i64(3), i64(77)}),
      MakePred("t1", "grp", CompareOp::kEq, {str("3")}),
      MakePred("t1", "grp", CompareOp::kLt, {str("3")}),
      MakePred("t1", "grp", CompareOp::kLike, {str("%")}),
      MakePred("t1", "val", CompareOp::kGe, {Value(50.0)}),
      MakePred("t1", "val", CompareOp::kLe, {i64(30)}),
      MakePred("t1", "val", CompareOp::kGt, {str("a")}),
      MakePred("t1", "name", CompareOp::kLike, {str("alpha%")}),
      MakePred("t1", "name", CompareOp::kLike, {str("%7")}),
      MakePred("t1", "name", CompareOp::kLike, {str("be%9%1")}),
      MakePred("t1", "name", CompareOp::kLike, {i64(7)}),
      MakePred("t1", "name", CompareOp::kEq, {str("beta1")}),
      MakePred("t1", "name", CompareOp::kGt, {str("beta5")}),
      MakePred("t1", "name", CompareOp::kIn, {str("alpha7"), str("beta8")}),
      MakePred("t1", "name", CompareOp::kBetween, {str("alpha"), str("alphb")}),
      MakePred("t1", "name", CompareOp::kGt, {i64(5)}),
      MakePred("t1", "name", CompareOp::kNe, {Value(1.5)}),
  };
  const Table* t1 = db->catalog()->GetTable("t1");
  Environment env = DefaultEnv();
  env.knobs.enable_indexscan = false;
  Rng rng(1);
  for (const Predicate& p : preds) {
    auto col = t1->schema().FindColumn(p.column.column);
    ASSERT_TRUE(col.has_value());
    size_t expected = 0;
    for (size_t r = 0; r < t1->num_rows(); ++r) {
      if (p.Matches(t1->GetValue(r, *col))) ++expected;
    }
    QuerySpec q;
    q.tables = {"t1"};
    q.filters = {p};
    QueryRunResult run;
    auto rel = db->ExecuteForResult(q, env, &rng, &run);
    ASSERT_TRUE(rel.ok()) << p.ToString();
    EXPECT_EQ(rel.value().NumRows(), expected) << p.ToString();
  }
}

TEST(ExecutorTest, JoinCardinalityMatchesBruteForce) {
  auto db = MakeTestDb();
  QuerySpec q;
  q.tables = {"t1", "t2"};
  q.joins = {{{"t1", "id"}, {"t2", "t1_id"}}};
  q.filters = {MakePred("t1", "grp", CompareOp::kEq, {Value(int64_t{0})})};
  Environment env = DefaultEnv();
  Rng rng(1);
  QueryRunResult run;
  auto rel = db->ExecuteForResult(q, env, &rng, &run);
  ASSERT_TRUE(rel.ok());

  // Brute force: count t2 rows whose t1_id % 10 == 0 (t1.grp == 0 rows are
  // exactly the ids divisible by 10 and every t2 row matches one t1 row).
  const Table* t2 = db->catalog()->GetTable("t2");
  size_t expected = 0;
  for (size_t r = 0; r < t2->num_rows(); ++r) {
    if (std::get<int64_t>(t2->GetValue(r, 1)) % 10 == 0) ++expected;
  }
  EXPECT_EQ(rel.value().NumRows(), expected);
}

TEST(ExecutorTest, AllJoinAlgorithmsAgree) {
  auto db = MakeTestDb();
  QuerySpec q;
  q.tables = {"t1", "t2"};
  q.joins = {{{"t1", "id"}, {"t2", "t1_id"}}};
  q.filters = {MakePred("t1", "grp", CompareOp::kEq, {Value(int64_t{4})})};
  Environment env = DefaultEnv();
  Rng rng(1);

  std::vector<size_t> counts;
  std::vector<OpType> seen;
  for (int mode = 0; mode < 3; ++mode) {
    Environment e = env;
    e.knobs.enable_hashjoin = (mode == 0);
    e.knobs.enable_mergejoin = (mode == 1);
    e.knobs.enable_nestloop = (mode == 2);
    if (mode != 0) e.knobs.enable_hashjoin = false;
    if (mode != 1) e.knobs.enable_mergejoin = false;
    if (mode != 2) e.knobs.enable_nestloop = false;
    QueryRunResult run;
    auto rel = db->ExecuteForResult(q, e, &rng, &run);
    ASSERT_TRUE(rel.ok());
    counts.push_back(rel.value().NumRows());
    seen.push_back(run.plan->op);
  }
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_EQ(counts[1], counts[2]);
  EXPECT_EQ(seen[0], OpType::kHashJoin);
  EXPECT_EQ(seen[1], OpType::kMergeJoin);
  EXPECT_EQ(seen[2], OpType::kNestedLoop);
}

TEST(ExecutorTest, SortOrdersRows) {
  auto db = MakeTestDb();
  QuerySpec q;
  q.tables = {"t1"};
  q.filters = {MakePred("t1", "grp", CompareOp::kEq, {Value(int64_t{1})})};
  q.order_by = {{{"t1", "val"}, false}};
  Environment env = DefaultEnv();
  Rng rng(1);
  QueryRunResult run;
  auto rel = db->ExecuteForResult(q, env, &rng, &run);
  ASSERT_TRUE(rel.ok());
  auto vi = rel.value().schema.FindColumn("t1.val");
  ASSERT_TRUE(vi.has_value());
  double prev = -HUGE_VAL;
  for (const auto& row : rel.value().rows) {
    double v = ValueToDouble(row[*vi]);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(ExecutorTest, SortDescending) {
  auto db = MakeTestDb();
  QuerySpec q;
  q.tables = {"t1"};
  q.filters = {MakePred("t1", "grp", CompareOp::kEq, {Value(int64_t{2})})};
  q.order_by = {{{"t1", "val"}, true}};
  Environment env = DefaultEnv();
  Rng rng(1);
  QueryRunResult run;
  auto rel = db->ExecuteForResult(q, env, &rng, &run);
  ASSERT_TRUE(rel.ok());
  auto vi = rel.value().schema.FindColumn("t1.val");
  double prev = HUGE_VAL;
  for (const auto& row : rel.value().rows) {
    double v = ValueToDouble(row[*vi]);
    EXPECT_LE(v, prev);
    prev = v;
  }
}

TEST(ExecutorTest, GroupByCountsPerGroup) {
  auto db = MakeTestDb();
  QuerySpec q;
  q.tables = {"t1"};
  q.group_by = {{"t1", "grp"}};
  Aggregate a;
  a.kind = Aggregate::Kind::kCount;
  q.aggregates = {a};
  Environment env = DefaultEnv();
  Rng rng(1);
  QueryRunResult run;
  auto rel = db->ExecuteForResult(q, env, &rng, &run);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel.value().NumRows(), 10u);  // 10 groups
  auto ci = rel.value().schema.FindColumn("count(*)");
  ASSERT_TRUE(ci.has_value());
  for (const auto& row : rel.value().rows) {
    EXPECT_DOUBLE_EQ(ValueToDouble(row[*ci]), 100.0);
  }
}

// GROUP BY emits its groups in first-seen order, independent of any hash
// table's iteration order: t1's rows run grp = 0, 1, ..., 9, 0, 1, ...
TEST(ExecutorTest, GroupByEmitsGroupsInFirstSeenOrder) {
  auto db = MakeTestDb();
  QuerySpec q;
  q.tables = {"t1"};
  q.group_by = {{"t1", "grp"}};
  Aggregate a;
  a.kind = Aggregate::Kind::kCount;
  q.aggregates = {a};
  Environment env = DefaultEnv();
  Rng rng(1);
  QueryRunResult run;
  auto rel = db->ExecuteForResult(q, env, &rng, &run);
  ASSERT_TRUE(rel.ok());
  auto gi = rel.value().schema.FindColumn("t1.grp");
  ASSERT_TRUE(gi.has_value());
  std::vector<int64_t> order;
  for (const auto& row : rel.value().rows) {
    order.push_back(std::get<int64_t>(row[*gi]));
  }
  EXPECT_EQ(order, (std::vector<int64_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

// A multi-column GROUP BY forms one group per combination of key values,
// not per value of its first key.
TEST(ExecutorTest, GroupByMultipleColumnsCountsEachCombination) {
  Database db("multikey");
  auto t = std::make_unique<Table>(
      "t", Schema({{"a", DataType::kInt64}, {"b", DataType::kString}}));
  for (int64_t i = 0; i < 24; ++i) {
    ASSERT_TRUE(
        t->AppendRow({Value(i % 3), Value("b" + std::to_string(i % 4))}).ok());
  }
  ASSERT_TRUE(db.catalog()->AddTable(std::move(t)).ok());
  db.Analyze();
  QuerySpec q;
  q.tables = {"t"};
  q.group_by = {{"t", "a"}, {"t", "b"}};
  Aggregate a;
  a.kind = Aggregate::Kind::kCount;
  q.aggregates = {a};
  Rng rng(1);
  QueryRunResult run;
  auto rel = db.ExecuteForResult(q, DefaultEnv(), &rng, &run);
  ASSERT_TRUE(rel.ok());
  ASSERT_EQ(rel.value().NumRows(), 12u);  // lcm(3, 4) combinations
  auto ci = rel.value().schema.FindColumn("count(*)");
  ASSERT_TRUE(ci.has_value());
  for (const auto& row : rel.value().rows) {
    EXPECT_DOUBLE_EQ(ValueToDouble(row[*ci]), 2.0);
  }
}

TEST(ExecutorTest, GlobalAggregates) {
  auto db = MakeTestDb();
  QuerySpec q;
  q.tables = {"t1"};
  Aggregate cnt;
  cnt.kind = Aggregate::Kind::kCount;
  Aggregate mx;
  mx.kind = Aggregate::Kind::kMax;
  mx.column = {"t1", "id"};
  Aggregate mn;
  mn.kind = Aggregate::Kind::kMin;
  mn.column = {"t1", "id"};
  Aggregate av;
  av.kind = Aggregate::Kind::kAvg;
  av.column = {"t1", "id"};
  q.aggregates = {cnt, mx, mn, av};
  Environment env = DefaultEnv();
  Rng rng(1);
  QueryRunResult run;
  auto rel = db->ExecuteForResult(q, env, &rng, &run);
  ASSERT_TRUE(rel.ok());
  ASSERT_EQ(rel.value().NumRows(), 1u);
  const auto& row = rel.value().rows[0];
  EXPECT_DOUBLE_EQ(ValueToDouble(row[0]), 1000.0);
  EXPECT_DOUBLE_EQ(ValueToDouble(row[1]), 999.0);
  EXPECT_DOUBLE_EQ(ValueToDouble(row[2]), 0.0);
  EXPECT_NEAR(ValueToDouble(row[3]), 499.5, 1e-9);
}

TEST(ExecutorTest, DistinctDeduplicates) {
  auto db = MakeTestDb();
  QuerySpec q;
  q.tables = {"t1"};
  q.select_columns = {{"t1", "grp"}};
  q.distinct = true;
  Environment env = DefaultEnv();
  Rng rng(1);
  QueryRunResult run;
  auto rel = db->ExecuteForResult(q, env, &rng, &run);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel.value().NumRows(), 10u);
}

TEST(ExecutorTest, LimitTrimsResult) {
  auto db = MakeTestDb();
  QuerySpec q;
  q.tables = {"t1"};
  q.limit = 7;
  Environment env = DefaultEnv();
  Rng rng(1);
  QueryRunResult run;
  auto rel = db->ExecuteForResult(q, env, &rng, &run);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel.value().NumRows(), 7u);
}

TEST(ExecutorTest, WorkCountsPopulated) {
  auto db = MakeTestDb();
  QuerySpec q;
  q.tables = {"t1", "t2"};
  q.joins = {{{"t1", "id"}, {"t2", "t1_id"}}};
  q.order_by = {{{"t2", "amount"}, false}};
  Environment env = DefaultEnv();
  Rng rng(1);
  auto run = db->Run(q, env, &rng);
  ASSERT_TRUE(run.ok());
  run.value().plan->VisitConst([](const PlanNode* node) {
    // Every operator must have recorded some work and a positive latency.
    double total_work = node->work.seq_pages + node->work.rand_pages +
                        node->work.tuples + node->work.index_tuples +
                        node->work.op_units;
    EXPECT_GT(total_work, 0.0) << OpTypeName(node->op);
    EXPECT_GT(node->actual_ms, 0.0);
  });
}

TEST(ExecutorTest, TinyWorkMemCausesSortSpill) {
  auto db = MakeTestDb();
  QuerySpec q;
  q.tables = {"t1"};
  q.order_by = {{{"t1", "val"}, false}};
  Environment env = DefaultEnv();
  env.knobs.work_mem_kb = 1.0;  // force spill
  Rng rng(1);
  auto run = db->Run(q, env, &rng);
  ASSERT_TRUE(run.ok());
  ASSERT_EQ(run.value().plan->op, OpType::kSort);
  EXPECT_GT(run.value().plan->work.seq_pages, 0.0);

  Environment big = DefaultEnv();
  big.knobs.work_mem_kb = 1 << 20;
  db->ClearExecutionCache();
  auto run2 = db->Run(q, big, &rng);
  ASSERT_TRUE(run2.ok());
  EXPECT_DOUBLE_EQ(run2.value().plan->work.seq_pages, 0.0);
}

// ----------------------------------------------------------- cost simulator

TEST(CostSimTest, CoefficientsPositive) {
  Environment env = DefaultEnv();
  CostSimulator sim(env, 100.0);
  for (OpType op : AllOpTypes()) {
    CostCoefficients c = sim.CoefficientsFor(op);
    EXPECT_GT(c.cs, 0.0);
    EXPECT_GT(c.cr, 0.0);
    EXPECT_GT(c.ct, 0.0);
    EXPECT_GT(c.ci, 0.0);
    EXPECT_GE(c.co, 0.0);
  }
}

TEST(CostSimTest, LargerBuffersCheapenIo) {
  Environment small = DefaultEnv();
  small.knobs.shared_buffers_mb = 8.0;
  Environment big = DefaultEnv();
  big.knobs.shared_buffers_mb = 4096.0;
  CostSimulator sim_small(small, 500.0), sim_big(big, 500.0);
  EXPECT_GT(sim_small.CoefficientsFor(OpType::kSeqScan).cs,
            sim_big.CoefficientsFor(OpType::kSeqScan).cs);
  EXPECT_GT(sim_small.CoefficientsFor(OpType::kSeqScan).cr,
            sim_big.CoefficientsFor(OpType::kSeqScan).cr);
}

TEST(CostSimTest, JitSpeedsTuplesButAddsPerOperatorSetup) {
  Environment off = DefaultEnv();
  Environment on = DefaultEnv();
  on.knobs.jit = true;
  CostSimulator sim_off(off, 100.0), sim_on(on, 100.0);
  EXPECT_LT(sim_on.CoefficientsFor(OpType::kSort).ct,
            sim_off.CoefficientsFor(OpType::kSort).ct);
  // JIT setup is charged per operator (visible to snapshots): an empty
  // operator costs more with JIT on.
  WorkCounts none;
  EXPECT_GT(sim_on.ExpectedOperatorMs(OpType::kSeqScan, none),
            sim_off.ExpectedOperatorMs(OpType::kSeqScan, none) + 0.1);
  // For a large CPU-heavy operator JIT pays off.
  WorkCounts big;
  big.tuples = 1e6;
  big.op_units = 1e6;
  EXPECT_LT(sim_on.ExpectedOperatorMs(OpType::kSort, big),
            sim_off.ExpectedOperatorMs(OpType::kSort, big));
}

TEST(CostSimTest, FasterHardwareIsCheaper) {
  Environment h1 = DefaultEnv();
  Environment h2 = DefaultEnv();
  h2.hardware = HardwareProfile::H2();
  CostSimulator sim1(h1, 100.0), sim2(h2, 100.0);
  WorkCounts w;
  w.seq_pages = 100;
  w.tuples = 10000;
  EXPECT_GT(sim1.ExpectedOperatorMs(OpType::kSeqScan, w),
            sim2.ExpectedOperatorMs(OpType::kSeqScan, w));
}

TEST(CostSimTest, HddRandomIoIsExpensive) {
  Environment ssd = DefaultEnv();
  Environment hdd = DefaultEnv();
  hdd.hardware = HardwareProfile::Hdd();
  CostSimulator s_ssd(ssd, 1000.0), s_hdd(hdd, 1000.0);
  EXPECT_GT(s_hdd.CoefficientsFor(OpType::kIndexScan).cr,
            10.0 * s_ssd.CoefficientsFor(OpType::kIndexScan).cr);
}

TEST(CostSimTest, ExpectedMsLinearInCounts) {
  CostSimulator sim(DefaultEnv(), 100.0);
  WorkCounts w1;
  w1.tuples = 1000;
  WorkCounts w2;
  w2.tuples = 2000;
  double m1 = sim.ExpectedOperatorMs(OpType::kSeqScan, w1);
  double m2 = sim.ExpectedOperatorMs(OpType::kSeqScan, w2);
  EXPECT_GT(m2, m1);
  // Linear up to the constant startup term.
  double startup = sim.ExpectedOperatorMs(OpType::kSeqScan, WorkCounts{});
  EXPECT_NEAR(m2 - startup, 2.0 * (m1 - startup), 1e-9);
}

TEST(CostSimTest, NoiseIsDeterministicPerSeed) {
  CostSimulator sim(DefaultEnv(), 100.0);
  WorkCounts w;
  w.tuples = 5000;
  Rng a(7), b(7);
  EXPECT_DOUBLE_EQ(sim.SampleOperatorMs(OpType::kSort, w, &a),
                   sim.SampleOperatorMs(OpType::kSort, w, &b));
}

TEST(CostSimTest, NoiseCentersOnExpectation) {
  CostSimulator sim(DefaultEnv(), 100.0);
  WorkCounts w;
  w.tuples = 5000;
  w.op_units = 4000;
  double expected = sim.ExpectedOperatorMs(OpType::kSort, w);
  Rng rng(11);
  double acc = 0.0;
  int n = 4000;
  for (int i = 0; i < n; ++i) acc += sim.SampleOperatorMs(OpType::kSort, w, &rng);
  EXPECT_NEAR(acc / n, expected, expected * 0.01);
}

// ---------------------------------------------------------------- database

TEST(DatabaseTest, RunFillsPlanAndTotal) {
  auto db = MakeTestDb();
  QuerySpec q;
  q.tables = {"t1"};
  Environment env = DefaultEnv();
  Rng rng(3);
  auto run = db->Run(q, env, &rng);
  ASSERT_TRUE(run.ok());
  EXPECT_GT(run.value().total_ms, 0.0);
  EXPECT_EQ(run.value().result_rows, 1000u);
  EXPECT_GE(run.value().total_ms, run.value().plan->TotalActualMs());
}

TEST(DatabaseTest, ExecutionCacheReusedAcrossEnvironments) {
  auto db = MakeTestDb();
  QuerySpec q;
  q.tables = {"t1", "t2"};
  q.joins = {{{"t1", "id"}, {"t2", "t1_id"}}};
  Rng rng(3);

  Environment e1 = DefaultEnv();
  e1.knobs.shared_buffers_mb = 64;
  auto r1 = db->Run(q, e1, &rng);
  ASSERT_TRUE(r1.ok());
  size_t cache_after_first = db->execution_cache_size();

  // Same plan shape under a different buffer setting: no new cache entry.
  Environment e2 = DefaultEnv();
  e2.knobs.shared_buffers_mb = 1024;
  auto r2 = db->Run(q, e2, &rng);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(db->execution_cache_size(), cache_after_first);

  // Same work counts, different environment -> different price.
  EXPECT_NE(r1.value().total_ms, r2.value().total_ms);
  EXPECT_DOUBLE_EQ(r1.value().plan->work.tuples, r2.value().plan->work.tuples);
}

TEST(DatabaseTest, EnvironmentShiftsLatencyMaterially) {
  auto db = MakeTestDb();
  // A short point query: exactly the regime where the paper's Figure 1
  // observes multi-x latency differences across knob configurations
  // (JIT setup and hardware dominate when per-tuple work is tiny).
  QuerySpec q;
  q.tables = {"t1"};
  q.filters = {MakePred("t1", "id", CompareOp::kEq, {Value(int64_t{7})})};

  Environment cheap = DefaultEnv();
  cheap.hardware = HardwareProfile::H2();
  cheap.knobs.jit = false;
  Environment costly = DefaultEnv();
  costly.hardware = HardwareProfile::Hdd();
  costly.knobs.shared_buffers_mb = 4;
  costly.knobs.jit = true;  // JIT compile overhead dominates a short query

  auto r_cheap = db->Run(q, cheap, nullptr);
  auto r_costly = db->Run(q, costly, nullptr);
  ASSERT_TRUE(r_cheap.ok() && r_costly.ok());
  EXPECT_GT(r_costly.value().total_ms, 2.0 * r_cheap.value().total_ms);
}

TEST(DatabaseTest, DeterministicWithSameSeed) {
  auto db1 = MakeTestDb();
  auto db2 = MakeTestDb();
  QuerySpec q;
  q.tables = {"t1"};
  Environment env = DefaultEnv();
  Rng a(42), b(42);
  auto r1 = db1->Run(q, env, &a);
  auto r2 = db2->Run(q, env, &b);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_DOUBLE_EQ(r1.value().total_ms, r2.value().total_ms);
}

TEST(DatabaseTest, EnvironmentSamplerProducesVariety) {
  auto envs = EnvironmentSampler::Sample(20, HardwareProfile::H1(), 777);
  ASSERT_EQ(envs.size(), 20u);
  std::set<std::string> distinct;
  for (const auto& e : envs) distinct.insert(e.knobs.ToString());
  EXPECT_GT(distinct.size(), 15u);
  // Env 0 is the default configuration.
  EXPECT_EQ(envs[0].knobs.ToString(), Knobs{}.ToString());
  // Every environment keeps at least one join algorithm enabled.
  for (const auto& e : envs) {
    EXPECT_TRUE(e.knobs.enable_hashjoin || e.knobs.enable_mergejoin ||
                e.knobs.enable_nestloop);
  }
}

TEST(PlanTest, FingerprintDistinguishesPlans) {
  auto db = MakeTestDb();
  QuerySpec q1;
  q1.tables = {"t1"};
  QuerySpec q2;
  q2.tables = {"t1"};
  q2.filters = {MakePred("t1", "grp", CompareOp::kEq, {Value(int64_t{1})})};
  auto p1 = db->Plan(q1, Knobs{});
  auto p2 = db->Plan(q2, Knobs{});
  ASSERT_TRUE(p1.ok() && p2.ok());
  EXPECT_NE(p1.value()->Fingerprint(), p2.value()->Fingerprint());
  EXPECT_EQ(p1.value()->Fingerprint(), p1.value()->Clone()->Fingerprint());
}

TEST(PlanTest, CloneIsDeepAndComplete) {
  auto db = MakeTestDb();
  QuerySpec q;
  q.tables = {"t1", "t2"};
  q.joins = {{{"t1", "id"}, {"t2", "t1_id"}}};
  Environment env = DefaultEnv();
  Rng rng(3);
  auto run = db->Run(q, env, &rng);
  ASSERT_TRUE(run.ok());
  auto clone = run.value().plan->Clone();
  EXPECT_EQ(clone->CountNodes(), run.value().plan->CountNodes());
  EXPECT_DOUBLE_EQ(clone->TotalActualMs(), run.value().plan->TotalActualMs());
  // Mutating the clone must not affect the original.
  clone->actual_ms += 100.0;
  EXPECT_NE(clone->actual_ms, run.value().plan->actual_ms);
}

}  // namespace
}  // namespace qcfe
