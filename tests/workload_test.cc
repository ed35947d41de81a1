/// Tests for src/workload: every benchmark builds, analyzes and generates
/// pinned (bit-identical) data, and every template instantiates/plans/
/// executes across environments; the collector produces balanced labeled
/// corpora; splits are disjoint and exhaustive.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>

#include "engine/table.h"
#include "sql/data_abstract.h"
#include "sql/simplified_templates.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/stats.h"
#include "workload/benchmark.h"
#include "workload/collector.h"

namespace qcfe {
namespace {

// Small scale factors keep the test fast while touching all code paths.
double TestScale(const std::string& name) {
  if (name == "tpch") return 0.08;
  if (name == "joblight") return 0.05;
  return 0.05;  // sysbench
}

class BenchmarkSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(BenchmarkSweep, BuildsAndAnalyzes) {
  auto bench = MakeBenchmark(GetParam());
  ASSERT_TRUE(bench.ok());
  auto db = (*bench)->BuildDatabase(TestScale(GetParam()), 7);
  ASSERT_NE(db, nullptr);
  EXPECT_GT(db->catalog()->num_tables(), 0u);
  for (const auto& t : db->catalog()->TableNames()) {
    const TableStats* ts = db->catalog()->GetStats(t);
    ASSERT_NE(ts, nullptr) << t;
    EXPECT_GT(ts->num_rows, 0u) << t;
    EXPECT_FALSE(ts->columns.empty()) << t;
  }
  EXPECT_GT(db->catalog()->TotalSizeMb(), 0.0);
}

TEST_P(BenchmarkSweep, EveryTemplateExecutesUnderSeveralEnvironments) {
  auto bench = MakeBenchmark(GetParam());
  ASSERT_TRUE(bench.ok());
  auto db = (*bench)->BuildDatabase(TestScale(GetParam()), 7);
  auto templates = (*bench)->Templates();
  ASSERT_FALSE(templates.empty());
  DataAbstract abstract(db->catalog());
  auto envs = EnvironmentSampler::Sample(4, HardwareProfile::H1(), 99);
  Rng rng(13);
  Rng noise(14);
  for (const auto& tmpl : templates) {
    for (const auto& env : envs) {
      auto spec = tmpl.Instantiate(abstract, &rng);
      ASSERT_TRUE(spec.ok()) << tmpl.name << ": " << spec.status().ToString();
      auto run = db->Run(*spec, env, &noise);
      ASSERT_TRUE(run.ok()) << tmpl.name << " env " << env.id << ": "
                            << run.status().ToString() << "\n"
                            << spec->ToString();
      EXPECT_GT(run->total_ms, 0.0);
      EXPECT_GT(run->plan->CountNodes(), 0u);
    }
  }
}

TEST_P(BenchmarkSweep, SimplifiedTemplatePipelineWorks) {
  auto bench = MakeBenchmark(GetParam());
  ASSERT_TRUE(bench.ok());
  auto db = (*bench)->BuildDatabase(TestScale(GetParam()), 7);
  SimplifiedTemplateGenerator gen(db->catalog());
  auto simplified = gen.Generate((*bench)->Templates());
  ASSERT_TRUE(simplified.ok());
  EXPECT_FALSE(simplified->empty());
  DataAbstract abstract(db->catalog());
  Rng rng(15);
  auto specs = gen.Fill(*simplified, abstract, 1, &rng);
  ASSERT_TRUE(specs.ok());
  Environment env;
  env.hardware = HardwareProfile::H1();
  Rng noise(16);
  for (const auto& spec : *specs) {
    auto run = db->Run(spec, env, &noise);
    ASSERT_TRUE(run.ok()) << spec.ToString() << ": "
                          << run.status().ToString();
  }
}

// Every column of every table at TestScale(name), seed 7, as the CRC-32 of
// its exact little-endian encoding. The constants pin the generators'
// output bit for bit: a change to a generator, or to any Rng distribution
// it draws from (values or stream consumption), changes them. Update them
// only for an intended change to the generated data.
TEST_P(BenchmarkSweep, GeneratedDataIsPinned) {
  const std::map<std::string, std::map<std::string, uint32_t>> kExpected = {
      {"tpch",
       {{"customer", 0xD32D1FAAu},
        {"lineitem", 0xEC52E247u},
        {"nation", 0xE9C4EDE6u},
        {"orders", 0xFFFB38DCu},
        {"part", 0x4351CF8Eu},
        {"partsupp", 0x8EB1520Du},
        {"region", 0x109CA0F5u},
        {"supplier", 0xB93ACB48u}}},
      {"joblight",
       {{"cast_info", 0x7744CDE6u},
        {"movie_companies", 0x23DDDC26u},
        {"movie_info", 0x29A01E07u},
        {"movie_info_idx", 0xEE4E3E4Eu},
        {"movie_keyword", 0x00EE2EE2u},
        {"title", 0x91F90F2Au}}},
      {"sysbench", {{"sbtest1", 0xF9DEBCB0u}}},
  };
  auto bench = MakeBenchmark(GetParam());
  ASSERT_TRUE(bench.ok());
  auto db = (*bench)->BuildDatabase(TestScale(GetParam()), 7);
  std::map<std::string, uint32_t> got;
  for (const std::string& name : db->catalog()->TableNames()) {
    const Table* table = db->catalog()->GetTable(name);
    ASSERT_NE(table, nullptr) << name;
    ByteWriter bytes;
    bytes.PutU64(table->num_rows());
    for (size_t c = 0; c < table->schema().num_columns(); ++c) {
      const Column& column = table->column(c);
      for (int64_t v : column.ints()) bytes.PutI64(v);
      for (double v : column.doubles()) bytes.PutF64(v);
      for (const std::string& v : column.strings()) bytes.PutString(v);
    }
    got[name] = Crc32(bytes.bytes());
  }
  EXPECT_EQ(got, kExpected.at(GetParam()));
}

// A 500-query Collect at TestScale(name), seed 7, over five sampled
// environments, as the CRC-32 of every label and every node's execution
// record (actual_rows, input_card, input_card2 and the five WorkCounts
// fields) in pre-order. The constants pin the executor's observable output
// bit for bit: a change to how any operator counts rows or work, or to the
// latencies priced from them, changes them. Update them only for an
// intended change to execution results.
TEST_P(BenchmarkSweep, CollectedCorpusIsPinned) {
  const std::map<std::string, uint32_t> kExpected = {
      {"tpch", 0xEED85756u},
      {"joblight", 0x96482434u},
      {"sysbench", 0x6EAD6ECEu},
  };
  auto bench = MakeBenchmark(GetParam());
  ASSERT_TRUE(bench.ok());
  auto db = (*bench)->BuildDatabase(TestScale(GetParam()), 7);
  auto envs = EnvironmentSampler::Sample(5, HardwareProfile::H1(), 41);
  QueryCollector collector(db.get(), &envs);
  auto set = collector.Collect((*bench)->Templates(), 500, 7);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  ByteWriter bytes;
  for (const LabeledQuery& q : set->queries) {
    bytes.PutF64(q.total_ms);
    q.plan->VisitConst([&](const PlanNode* node) {
      bytes.PutF64(node->actual_rows);
      bytes.PutF64(node->input_card);
      bytes.PutF64(node->input_card2);
      bytes.PutF64(node->work.seq_pages);
      bytes.PutF64(node->work.rand_pages);
      bytes.PutF64(node->work.tuples);
      bytes.PutF64(node->work.index_tuples);
      bytes.PutF64(node->work.op_units);
    });
  }
  EXPECT_EQ(Crc32(bytes.bytes()), kExpected.at(GetParam()))
      << std::hex << "0x" << Crc32(bytes.bytes());
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, BenchmarkSweep,
                         ::testing::Values("tpch", "joblight", "sysbench"));

TEST(BenchmarkTest, FactoryRejectsUnknown) {
  EXPECT_FALSE(MakeBenchmark("oracle").ok());
}

TEST(BenchmarkTest, TemplateCountsMatchPaper) {
  auto tpch = MakeBenchmark("tpch");
  auto joblight = MakeBenchmark("joblight");
  auto sysbench = MakeBenchmark("sysbench");
  ASSERT_TRUE(tpch.ok() && joblight.ok() && sysbench.ok());
  EXPECT_EQ((*tpch)->Templates().size(), 22u);    // TPC-H query templates
  EXPECT_EQ((*joblight)->Templates().size(), 70u);  // job-light queries
  EXPECT_EQ((*sysbench)->Templates().size(), 5u);   // oltp_read_only reads
}

TEST(BenchmarkTest, JobLightTemplatesAreDeterministic) {
  auto b1 = MakeBenchmark("joblight");
  auto b2 = MakeBenchmark("joblight");
  auto t1 = (*b1)->Templates();
  auto t2 = (*b2)->Templates();
  ASSERT_EQ(t1.size(), t2.size());
  for (size_t i = 0; i < t1.size(); ++i) EXPECT_EQ(t1[i].text, t2[i].text);
}

TEST(BenchmarkTest, TpchLineitemDatesCorrelateWithOrders) {
  auto bench = MakeBenchmark("tpch");
  auto db = (*bench)->BuildDatabase(0.05, 7);
  const Table* orders = db->catalog()->GetTable("orders");
  const Table* lineitem = db->catalog()->GetTable("lineitem");
  ASSERT_NE(orders, nullptr);
  ASSERT_NE(lineitem, nullptr);
  // l_shipdate > o_orderdate for the matching order.
  std::map<int64_t, int64_t> order_dates;
  auto ok_col = orders->schema().FindColumn("o_orderkey");
  auto od_col = orders->schema().FindColumn("o_orderdate");
  for (size_t r = 0; r < orders->num_rows(); ++r) {
    order_dates[std::get<int64_t>(orders->GetValue(r, *ok_col))] =
        std::get<int64_t>(orders->GetValue(r, *od_col));
  }
  auto lk_col = lineitem->schema().FindColumn("l_orderkey");
  auto sd_col = lineitem->schema().FindColumn("l_shipdate");
  for (size_t r = 0; r < std::min<size_t>(lineitem->num_rows(), 500); ++r) {
    int64_t ok = std::get<int64_t>(lineitem->GetValue(r, *lk_col));
    int64_t sd = std::get<int64_t>(lineitem->GetValue(r, *sd_col));
    EXPECT_GT(sd, order_dates.at(ok));
  }
}

TEST(BenchmarkTest, JobLightMovieIdsAreSkewed) {
  auto bench = MakeBenchmark("joblight");
  auto db = (*bench)->BuildDatabase(0.05, 7);
  const ColumnStats* cs = db->catalog()->GetColumnStats("cast_info", "movie_id");
  ASSERT_NE(cs, nullptr);
  // Zipf skew: the lowest histogram bucket carries far more than uniform.
  ASSERT_FALSE(cs->histogram.empty());
  double uniform_share = 1.0 / static_cast<double>(cs->histogram.size());
  double first_share = static_cast<double>(cs->histogram.front()) /
                       static_cast<double>(cs->num_rows);
  EXPECT_GT(first_share, 2.0 * uniform_share);
}

TEST(CollectorTest, CollectBalancesTemplatesAndEnvironments) {
  auto bench = MakeBenchmark("sysbench");
  auto db = (*bench)->BuildDatabase(0.05, 7);
  auto envs = EnvironmentSampler::Sample(4, HardwareProfile::H1(), 55);
  QueryCollector collector(db.get(), &envs);
  auto set = collector.Collect((*bench)->Templates(), 200, 77);
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->queries.size(), 200u);
  EXPECT_GT(set->collection_ms, 0.0);

  std::map<size_t, int> per_template;
  std::map<int, int> per_env;
  for (const auto& q : set->queries) {
    per_template[q.template_index]++;
    per_env[q.env_id]++;
    EXPECT_NE(q.plan, nullptr);
    EXPECT_GT(q.total_ms, 0.0);
  }
  EXPECT_EQ(per_template.size(), 5u);
  EXPECT_EQ(per_env.size(), 4u);
  for (const auto& [t, c] : per_template) EXPECT_EQ(c, 40);
}

TEST(CollectorTest, RunSpecsGridKeepsOrder) {
  auto bench = MakeBenchmark("sysbench");
  auto db = (*bench)->BuildDatabase(0.05, 7);
  auto envs = EnvironmentSampler::Sample(2, HardwareProfile::H1(), 55);
  QueryCollector collector(db.get(), &envs);
  DataAbstract abstract(db->catalog());
  Rng rng(1);
  std::vector<QuerySpec> specs;
  for (const auto& t : (*bench)->Templates()) {
    auto s = t.Instantiate(abstract, &rng);
    ASSERT_TRUE(s.ok());
    specs.push_back(*s);
  }
  auto grid = collector.RunSpecsGrid(specs, envs, 3);
  ASSERT_TRUE(grid.ok());
  ASSERT_EQ(grid->size(), envs.size());
  for (size_t e = 0; e < envs.size(); ++e) {
    const LabeledQuerySet& set = (*grid)[e];
    ASSERT_EQ(set.queries.size(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(set.queries[i].template_index, i);
      EXPECT_EQ(set.queries[i].env_id, envs[e].id);
    }
  }
}

TEST(CollectorTest, SplitIsDisjointAndExhaustive) {
  auto split = SplitIndices(100, 0.8, 3);
  EXPECT_EQ(split.train.size(), 80u);
  EXPECT_EQ(split.test.size(), 20u);
  std::set<size_t> all(split.train.begin(), split.train.end());
  for (size_t i : split.test) {
    EXPECT_EQ(all.count(i), 0u);
    all.insert(i);
  }
  EXPECT_EQ(all.size(), 100u);
}

TEST(CollectorTest, EnvironmentLatencySpreadIsMaterial) {
  // The Figure 1 premise: the same queries cost materially different amounts
  // under different knob configurations.
  auto bench = MakeBenchmark("sysbench");
  auto db = (*bench)->BuildDatabase(0.05, 7);
  auto envs = EnvironmentSampler::Sample(5, HardwareProfile::H1(), 313);
  DataAbstract abstract(db->catalog());
  auto templates = (*bench)->Templates();

  std::vector<double> env_means;
  for (const auto& env : envs) {
    Rng rng(19);  // same query values for every environment
    Rng noise(20);
    std::vector<double> costs;
    for (int i = 0; i < 60; ++i) {
      const auto& tmpl = templates[static_cast<size_t>(i) % templates.size()];
      auto spec = tmpl.Instantiate(abstract, &rng);
      ASSERT_TRUE(spec.ok());
      auto run = db->Run(*spec, env, &noise);
      ASSERT_TRUE(run.ok());
      costs.push_back(run->total_ms);
    }
    env_means.push_back(Mean(costs));
  }
  double lo = *std::min_element(env_means.begin(), env_means.end());
  double hi = *std::max_element(env_means.begin(), env_means.end());
  EXPECT_GT(hi / lo, 1.5) << "environments too homogeneous";
}

}  // namespace
}  // namespace qcfe
