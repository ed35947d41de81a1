/// Tests for src/sql: tokenizer, parser grammar coverage, data abstract
/// sampling, template instantiation (including correlated `{col+K}` and
/// `:prefix` placeholders) and the Algorithm 1 simplified-template pipeline.

#include <gtest/gtest.h>

#include <set>

#include "engine/database.h"
#include "util/check.h"
#include "sql/data_abstract.h"
#include "sql/parser.h"
#include "sql/simplified_templates.h"
#include "sql/template.h"
#include "sql/tokenizer.h"
#include "util/rng.h"

namespace qcfe {
namespace {

std::unique_ptr<Database> MakeDb() {
  auto db = std::make_unique<Database>("sqltest");
  Rng rng(4);
  auto t = std::make_unique<Table>(
      "orders", Schema({{"o_id", DataType::kInt64},
                        {"o_ckey", DataType::kInt64},
                        {"o_total", DataType::kFloat64},
                        {"o_status", DataType::kString}}));
  const char* statuses[] = {"open", "done", "hold"};
  for (int64_t i = 0; i < 500; ++i) {
    QCFE_CHECK_OK(t->AppendRow({Value(i), Value(i % 50), Value(rng.Uniform(1.0, 900.0)),
                        Value(std::string(statuses[i % 3]))}));
  }
  QCFE_CHECK_OK(t->BuildIndex("o_id"));
  QCFE_CHECK_OK(db->catalog()->AddTable(std::move(t)));

  auto c = std::make_unique<Table>(
      "cust", Schema({{"c_id", DataType::kInt64},
                      {"c_name", DataType::kString}}));
  for (int64_t i = 0; i < 50; ++i) {
    QCFE_CHECK_OK(c->AppendRow({Value(i), Value("name" + std::to_string(i))}));
  }
  QCFE_CHECK_OK(c->BuildIndex("c_id"));
  QCFE_CHECK_OK(db->catalog()->AddTable(std::move(c)));
  db->Analyze();
  return db;
}

// --------------------------------------------------------------- tokenizer

TEST(TokenizerTest, BasicTokens) {
  auto r = Tokenize("SELECT a.b, 42, 3.14 FROM t WHERE x >= 'hi'");
  ASSERT_TRUE(r.ok());
  const auto& toks = r.value();
  EXPECT_EQ(toks[0].type, TokenType::kIdentifier);
  EXPECT_EQ(toks[0].text, "select");  // lower-cased
  bool saw_number = false, saw_decimal = false, saw_string = false,
       saw_ge = false;
  for (const auto& t : toks) {
    if (t.type == TokenType::kNumber && t.text == "42") saw_number = true;
    if (t.type == TokenType::kNumber && t.text == "3.14") saw_decimal = true;
    if (t.type == TokenType::kString && t.text == "hi") saw_string = true;
    if (t.type == TokenType::kOperator && t.text == ">=") saw_ge = true;
  }
  EXPECT_TRUE(saw_number && saw_decimal && saw_string && saw_ge);
  EXPECT_EQ(toks.back().type, TokenType::kEnd);
}

TEST(TokenizerTest, PlaceholdersAndNegativeNumbers) {
  auto r = Tokenize("x = {t.col+99} and y = -5");
  ASSERT_TRUE(r.ok());
  bool saw_ph = false, saw_neg = false;
  for (const auto& t : r.value()) {
    if (t.type == TokenType::kPlaceholder && t.text == "t.col+99") saw_ph = true;
    if (t.type == TokenType::kNumber && t.text == "-5") saw_neg = true;
  }
  EXPECT_TRUE(saw_ph);
  EXPECT_TRUE(saw_neg);
}

TEST(TokenizerTest, Errors) {
  EXPECT_FALSE(Tokenize("select 'unterminated").ok());
  EXPECT_FALSE(Tokenize("select {unterminated").ok());
  EXPECT_FALSE(Tokenize("select #").ok());
}

// ------------------------------------------------------------------ parser

TEST(ParserTest, SimpleSelectStar) {
  auto q = ParseQuery("select * from orders");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->tables, std::vector<std::string>{"orders"});
  EXPECT_TRUE(q->filters.empty());
  EXPECT_FALSE(q->HasAggregation());
}

TEST(ParserTest, FiltersAllOperators) {
  auto q = ParseQuery(
      "select * from t where t.a = 1 and t.b <> 2 and t.c < 3 and t.d <= 4 "
      "and t.e > 5 and t.f >= 6 and t.g between 1 and 9 and "
      "t.h in (1, 2, 3) and t.s like 'ab%'");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->filters.size(), 9u);
  EXPECT_EQ(q->filters[0].op, CompareOp::kEq);
  EXPECT_EQ(q->filters[1].op, CompareOp::kNe);
  EXPECT_EQ(q->filters[2].op, CompareOp::kLt);
  EXPECT_EQ(q->filters[3].op, CompareOp::kLe);
  EXPECT_EQ(q->filters[4].op, CompareOp::kGt);
  EXPECT_EQ(q->filters[5].op, CompareOp::kGe);
  EXPECT_EQ(q->filters[6].op, CompareOp::kBetween);
  EXPECT_EQ(q->filters[7].op, CompareOp::kIn);
  EXPECT_EQ(q->filters[7].literals.size(), 3u);
  EXPECT_EQ(q->filters[8].op, CompareOp::kLike);
}

TEST(ParserTest, JoinSyntaxExplicit) {
  auto q = ParseQuery(
      "select * from orders join cust on orders.o_ckey = cust.c_id");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->tables.size(), 2u);
  ASSERT_EQ(q->joins.size(), 1u);
  EXPECT_EQ(q->joins[0].left.ToString(), "orders.o_ckey");
  EXPECT_EQ(q->joins[0].right.ToString(), "cust.c_id");
}

TEST(ParserTest, JoinSyntaxImplicitCommaWhere) {
  auto q = ParseQuery(
      "select count(*) from orders, cust where orders.o_ckey = cust.c_id "
      "and orders.o_total > 10");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->tables.size(), 2u);
  ASSERT_EQ(q->joins.size(), 1u);
  ASSERT_EQ(q->filters.size(), 1u);
  ASSERT_EQ(q->aggregates.size(), 1u);
  EXPECT_EQ(q->aggregates[0].kind, Aggregate::Kind::kCount);
}

TEST(ParserTest, Aggregates) {
  auto q = ParseQuery(
      "select count(*), sum(t.a), avg(t.b), min(t.c), max(t.d) from t");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->aggregates.size(), 5u);
  EXPECT_EQ(q->aggregates[1].kind, Aggregate::Kind::kSum);
  EXPECT_EQ(q->aggregates[1].column.ToString(), "t.a");
  EXPECT_TRUE(q->aggregates[0].column.column.empty());
}

TEST(ParserTest, GroupOrderLimitDistinct) {
  auto q = ParseQuery(
      "select distinct t.a from t where t.b > 0 group by t.a "
      "order by t.a desc limit 10");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->distinct);
  ASSERT_EQ(q->group_by.size(), 1u);
  ASSERT_EQ(q->order_by.size(), 1u);
  EXPECT_TRUE(q->order_by[0].descending);
  EXPECT_EQ(q->limit, 10u);
}

TEST(ParserTest, UnqualifiedColumnsResolveWithSingleTable) {
  auto q = ParseQuery("select c from sbtest1 where id = 5 order by c");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->select_columns[0].ToString(), "sbtest1.c");
  EXPECT_EQ(q->filters[0].column.ToString(), "sbtest1.id");
  EXPECT_EQ(q->order_by[0].column.ToString(), "sbtest1.c");
}

TEST(ParserTest, UnqualifiedAmbiguousWithTwoTablesFails) {
  EXPECT_FALSE(
      ParseQuery("select x from a, b where a.i = b.j and y = 3").ok());
}

TEST(ParserTest, ErrorCases) {
  EXPECT_FALSE(ParseQuery("insert into t values (1)").ok());
  EXPECT_FALSE(ParseQuery("select * from").ok());
  EXPECT_FALSE(ParseQuery("select * from t where").ok());
  EXPECT_FALSE(ParseQuery("select * from t where t.a between 1").ok());
  EXPECT_FALSE(ParseQuery("select * from t extra garbage !").ok());
  EXPECT_FALSE(ParseQuery("select * from a join b").ok());
}

TEST(ParserTest, PlaceholderLeftUnboundFails) {
  EXPECT_FALSE(ParseQuery("select * from t where t.a = {t.a}").ok());
}

TEST(ParserTest, RoundTripThroughToString) {
  auto q = ParseQuery(
      "select count(*) from orders join cust on orders.o_ckey = cust.c_id "
      "where orders.o_total > 5 group by cust.c_name order by cust.c_name "
      "limit 3");
  ASSERT_TRUE(q.ok());
  auto q2 = ParseQuery(q->ToString());
  ASSERT_TRUE(q2.ok()) << q->ToString() << " -> " << q2.status().ToString();
  EXPECT_EQ(q->ToString(), q2->ToString());
}

// ----------------------------------------------------------- data abstract

TEST(DataAbstractTest, SamplesComeFromColumnDomain) {
  auto db = MakeDb();
  DataAbstract abstract(db->catalog());
  Rng rng(8);
  for (int i = 0; i < 50; ++i) {
    auto v = abstract.SampleValue("orders", "o_id", &rng);
    ASSERT_TRUE(v.ok());
    int64_t x = std::get<int64_t>(v.value());
    EXPECT_GE(x, 0);
    EXPECT_LT(x, 500);
  }
}

TEST(DataAbstractTest, UnknownColumnFails) {
  auto db = MakeDb();
  DataAbstract abstract(db->catalog());
  Rng rng(8);
  EXPECT_FALSE(abstract.SampleValue("orders", "nope", &rng).ok());
  EXPECT_FALSE(abstract.SampleValue("nope", "o_id", &rng).ok());
}

TEST(DataAbstractTest, PrefixSampling) {
  auto db = MakeDb();
  DataAbstract abstract(db->catalog());
  Rng rng(8);
  auto p = abstract.SamplePrefix("orders", "o_status", &rng);
  ASSERT_TRUE(p.ok());
  EXPECT_LE(p->size(), 3u);
  EXPECT_FALSE(abstract.SamplePrefix("orders", "o_id", &rng).ok());
  EXPECT_TRUE(abstract.IsStringColumn("orders", "o_status"));
  EXPECT_FALSE(abstract.IsStringColumn("orders", "o_id"));
}

// ---------------------------------------------------------------- template

TEST(TemplateTest, InstantiateSimplePlaceholder) {
  auto db = MakeDb();
  DataAbstract abstract(db->catalog());
  Rng rng(9);
  QueryTemplate t{"t1", "select * from orders where orders.o_id = {orders.o_id}"};
  auto spec = t.Instantiate(abstract, &rng);
  ASSERT_TRUE(spec.ok());
  ASSERT_EQ(spec->filters.size(), 1u);
  EXPECT_EQ(spec->filters[0].op, CompareOp::kEq);
}

TEST(TemplateTest, CorrelatedOffsetPlaceholder) {
  auto db = MakeDb();
  DataAbstract abstract(db->catalog());
  Rng rng(9);
  QueryTemplate t{"t2",
                  "select * from orders where orders.o_id between "
                  "{orders.o_id} and {orders.o_id+99}"};
  auto spec = t.Instantiate(abstract, &rng);
  ASSERT_TRUE(spec.ok());
  ASSERT_EQ(spec->filters.size(), 1u);
  double lo = ValueToDouble(spec->filters[0].literals[0]);
  double hi = ValueToDouble(spec->filters[0].literals[1]);
  EXPECT_DOUBLE_EQ(hi - lo, 99.0);
}

TEST(TemplateTest, PrefixPlaceholderInsideLike) {
  auto db = MakeDb();
  DataAbstract abstract(db->catalog());
  Rng rng(9);
  QueryTemplate t{"t3",
                  "select * from cust where cust.c_name like "
                  "'{cust.c_name:prefix}%'"};
  auto spec = t.Instantiate(abstract, &rng);
  ASSERT_TRUE(spec.ok());
  ASSERT_EQ(spec->filters.size(), 1u);
  EXPECT_EQ(spec->filters[0].op, CompareOp::kLike);
  const std::string& pat = std::get<std::string>(spec->filters[0].literals[0]);
  EXPECT_EQ(pat.back(), '%');
  EXPECT_GE(pat.size(), 2u);
}

TEST(TemplateTest, StringPlaceholderQuoted) {
  auto db = MakeDb();
  DataAbstract abstract(db->catalog());
  Rng rng(9);
  QueryTemplate t{"t4",
                  "select * from orders where orders.o_status = "
                  "{orders.o_status}"};
  auto text = t.InstantiateText(abstract, &rng);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("'"), std::string::npos);
  auto spec = t.Instantiate(abstract, &rng);
  ASSERT_TRUE(spec.ok());
}

TEST(TemplateTest, ParseStructureNeutralizesPlaceholders) {
  QueryTemplate t{"t5",
                  "select count(*) from orders where orders.o_total > "
                  "{orders.o_total} group by orders.o_status"};
  auto spec = t.ParseStructure();
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->filters.size(), 1u);
  EXPECT_EQ(spec->group_by.size(), 1u);
}

TEST(TemplateTest, BadPlaceholderErrors) {
  auto db = MakeDb();
  DataAbstract abstract(db->catalog());
  Rng rng(9);
  QueryTemplate bad1{"b1", "select * from orders where orders.o_id = {noDot}"};
  EXPECT_FALSE(bad1.Instantiate(abstract, &rng).ok());
  QueryTemplate bad2{"b2",
                     "select * from orders where orders.o_id = {orders.o_id"};
  EXPECT_FALSE(bad2.Instantiate(abstract, &rng).ok());
  QueryTemplate bad3{"b3",
                     "select * from orders where orders.o_id = "
                     "{orders.o_id:weird}"};
  EXPECT_FALSE(bad3.Instantiate(abstract, &rng).ok());
}

// ---------------------------------------------- simplified templates (Alg 1)

TEST(SimplifiedTemplatesTest, GenerateCoversOperatorClasses) {
  auto db = MakeDb();
  SimplifiedTemplateGenerator gen(db->catalog());
  std::vector<QueryTemplate> original = {
      {"orig1",
       "select count(*) from orders join cust on orders.o_ckey = cust.c_id "
       "where orders.o_total > {orders.o_total} group by orders.o_status "
       "order by orders.o_status"}};
  auto templates = gen.Generate(original);
  ASSERT_TRUE(templates.ok());
  std::set<SimplifiedOpClass> classes;
  for (const auto& t : templates.value()) classes.insert(t.op_class);
  EXPECT_TRUE(classes.count(SimplifiedOpClass::kScan));
  EXPECT_TRUE(classes.count(SimplifiedOpClass::kSort));
  EXPECT_TRUE(classes.count(SimplifiedOpClass::kAggregate));
  EXPECT_TRUE(classes.count(SimplifiedOpClass::kJoin));
  // The join row yields two parent templates (with and without ORDER BY).
  int joins = 0;
  for (const auto& t : templates.value()) {
    joins += (t.op_class == SimplifiedOpClass::kJoin);
  }
  EXPECT_EQ(joins, 2);
}

TEST(SimplifiedTemplatesTest, GenerateDeduplicates) {
  auto db = MakeDb();
  SimplifiedTemplateGenerator gen(db->catalog());
  // Same filter column twice across two templates -> one scan template.
  std::vector<QueryTemplate> original = {
      {"a", "select * from orders where orders.o_total > {orders.o_total}"},
      {"b", "select * from orders where orders.o_total < {orders.o_total}"}};
  auto templates = gen.Generate(original);
  ASSERT_TRUE(templates.ok());
  EXPECT_EQ(templates->size(), 1u);
  EXPECT_EQ(templates->at(0).op_class, SimplifiedOpClass::kScan);
  EXPECT_EQ(templates->at(0).table, "orders");
  EXPECT_EQ(templates->at(0).column, "o_total");
}

TEST(SimplifiedTemplatesTest, FillProducesExecutableQueries) {
  auto db = MakeDb();
  SimplifiedTemplateGenerator gen(db->catalog());
  std::vector<QueryTemplate> original = {
      {"orig",
       "select count(*) from orders join cust on orders.o_ckey = cust.c_id "
       "where orders.o_total > {orders.o_total} and cust.c_name like "
       "'{cust.c_name:prefix}%' group by orders.o_status "
       "order by orders.o_status"}};
  auto templates = gen.Generate(original);
  ASSERT_TRUE(templates.ok());
  DataAbstract abstract(db->catalog());
  Rng rng(10);
  int scale = 3;
  auto specs = gen.Fill(*templates, abstract, scale, &rng);
  ASSERT_TRUE(specs.ok());
  EXPECT_EQ(specs->size(), templates->size() * 3);

  // Every generated query must plan and execute.
  Environment env;
  env.hardware = HardwareProfile::H1();
  Rng noise(11);
  for (const auto& spec : *specs) {
    auto run = db->Run(spec, env, &noise);
    ASSERT_TRUE(run.ok()) << spec.ToString() << ": "
                          << run.status().ToString();
    EXPECT_GT(run->total_ms, 0.0);
  }
}

TEST(SimplifiedTemplatesTest, FillUsesVariedKeywords) {
  auto db = MakeDb();
  SimplifiedTemplateGenerator gen(db->catalog());
  std::vector<QueryTemplate> original = {
      {"o", "select * from orders where orders.o_total > {orders.o_total}"}};
  auto templates = gen.Generate(original);
  ASSERT_TRUE(templates.ok());
  DataAbstract abstract(db->catalog());
  Rng rng(12);
  auto specs = gen.Fill(*templates, abstract, 40, &rng);
  ASSERT_TRUE(specs.ok());
  std::set<CompareOp> ops;
  for (const auto& s : *specs) ops.insert(s.filters[0].op);
  // Random keyword selection covers several operators (paper: {<, >, =, ...}).
  EXPECT_GE(ops.size(), 3u);
}

}  // namespace
}  // namespace qcfe
