#include "sql/simplified_templates.h"

#include <set>

#include "engine/types.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace qcfe {

Result<std::vector<SimplifiedTemplate>> SimplifiedTemplateGenerator::Generate(
    const std::vector<QueryTemplate>& original) const {
  // Phase 1: operator -> table/column info, deduplicated.
  std::set<std::pair<std::string, std::string>> scan_info;
  std::set<std::pair<std::string, std::string>> sort_info;
  std::set<std::pair<std::string, std::string>> agg_info;
  std::set<std::pair<std::string, std::string>> join_info;  // "t.c" x "t.c"

  for (const auto& tmpl : original) {
    Result<QuerySpec> parsed = tmpl.ParseStructure();
    if (!parsed.ok()) {
      return Status::ParseError("template " + tmpl.name + ": " +
                                parsed.status().message());
    }
    const QuerySpec& q = *parsed;
    // Filter keywords (>, <, =, in, like, between, ...) -> scan operators.
    for (const auto& p : q.filters) {
      scan_info.insert({p.column.table, p.column.column});
    }
    for (const auto& k : q.order_by) {
      sort_info.insert({k.column.table, k.column.column});
    }
    for (const auto& g : q.group_by) {
      agg_info.insert({g.table, g.column});
    }
    // COUNT(*)/SUM(...)-style aggregates without GROUP BY and DISTINCT
    // queries still execute an Aggregate operator; reproduce it with a
    // grouped template over a referenced column so the snapshot observes
    // the operator (job-light and Sysbench are full of such queries).
    if (q.group_by.empty() && (!q.aggregates.empty() || q.distinct)) {
      if (!q.filters.empty()) {
        agg_info.insert(
            {q.filters[0].column.table, q.filters[0].column.column});
      } else if (!q.joins.empty()) {
        agg_info.insert({q.joins[0].left.table, q.joins[0].left.column});
      }
    }
    for (const auto& j : q.joins) {
      join_info.insert({j.left.ToString(), j.right.ToString()});
    }
  }

  // Phase 2: instantiate parent templates.
  std::vector<SimplifiedTemplate> out;
  auto valid_column = [&](const std::string& t, const std::string& c) {
    return catalog_->GetColumnStats(t, c) != nullptr;
  };
  for (const auto& [t, c] : scan_info) {
    if (!valid_column(t, c)) continue;
    SimplifiedTemplate s;
    s.op_class = SimplifiedOpClass::kScan;
    s.table = t;
    s.column = c;
    out.push_back(s);
  }
  for (const auto& [t, c] : sort_info) {
    if (!valid_column(t, c)) continue;
    SimplifiedTemplate s;
    s.op_class = SimplifiedOpClass::kSort;
    s.table = t;
    s.column = c;
    out.push_back(s);
  }
  for (const auto& [t, c] : agg_info) {
    if (!valid_column(t, c)) continue;
    SimplifiedTemplate s;
    s.op_class = SimplifiedOpClass::kAggregate;
    s.table = t;
    s.column = c;
    out.push_back(s);
  }
  for (const auto& [l, r] : join_info) {
    auto ldot = l.find('.');
    auto rdot = r.find('.');
    SimplifiedTemplate s;
    s.op_class = SimplifiedOpClass::kJoin;
    s.left = {l.substr(0, ldot), l.substr(ldot + 1)};
    s.right = {r.substr(0, rdot), r.substr(rdot + 1)};
    if (!valid_column(s.left.table, s.left.column) ||
        !valid_column(s.right.table, s.right.column)) {
      continue;
    }
    out.push_back(s);
    // Second parent template of the join row: with ORDER BY.
    SimplifiedTemplate s2 = s;
    s2.with_order_by = true;
    out.push_back(s2);
  }
  return out;
}

namespace {

Predicate RandomPredicate(const ColumnRef& col, const DataAbstract& abstract,
                          Rng* rng, Status* status) {
  Predicate p;
  p.column = col;
  Result<Value> v = abstract.SampleValue(col.table, col.column, rng);
  if (!v.ok()) {
    *status = v.status();
    return p;
  }
  if (abstract.IsStringColumn(col.table, col.column)) {
    // Random keyword from {=, like} for strings.
    if (rng->Bernoulli(0.5)) {
      p.op = CompareOp::kEq;
      p.literals = {*v};
    } else {
      p.op = CompareOp::kLike;
      Result<std::string> prefix =
          abstract.SamplePrefix(col.table, col.column, rng);
      if (!prefix.ok()) {
        *status = prefix.status();
        return p;
      }
      p.literals = {Value(*prefix + "%")};
    }
  } else {
    // Random keyword from {<, <=, =, >=, >}.
    static const CompareOp kOps[] = {CompareOp::kLt, CompareOp::kLe,
                                     CompareOp::kEq, CompareOp::kGe,
                                     CompareOp::kGt};
    p.op = kOps[rng->UniformInt(0, 4)];
    p.literals = {*v};
  }
  *status = Status::OK();
  return p;
}

}  // namespace

Result<std::vector<QuerySpec>> SimplifiedTemplateGenerator::Fill(
    const std::vector<SimplifiedTemplate>& templates,
    const DataAbstract& abstract, int scale, Rng* rng) const {
  std::vector<QuerySpec> out;
  out.reserve(templates.size() * static_cast<size_t>(scale));
  for (int round = 0; round < scale; ++round) {
    for (const auto& tmpl : templates) {
      QuerySpec q;
      Status st;
      switch (tmpl.op_class) {
        case SimplifiedOpClass::kScan: {
          q.tables = {tmpl.table};
          q.filters = {RandomPredicate({tmpl.table, tmpl.column}, abstract,
                                       rng, &st)};
          break;
        }
        case SimplifiedOpClass::kSort: {
          q.tables = {tmpl.table};
          q.filters = {RandomPredicate({tmpl.table, tmpl.column}, abstract,
                                       rng, &st)};
          q.order_by = {{{tmpl.table, tmpl.column}, rng->Bernoulli(0.25)}};
          break;
        }
        case SimplifiedOpClass::kAggregate: {
          q.tables = {tmpl.table};
          q.filters = {RandomPredicate({tmpl.table, tmpl.column}, abstract,
                                       rng, &st)};
          Aggregate a;
          a.kind = Aggregate::Kind::kCount;
          q.aggregates = {a};
          q.group_by = {{tmpl.table, tmpl.column}};
          break;
        }
        case SimplifiedOpClass::kJoin: {
          q.tables = {tmpl.left.table, tmpl.right.table};
          q.joins = {{tmpl.left, tmpl.right}};
          q.filters = {RandomPredicate(tmpl.left, abstract, rng, &st)};
          if (tmpl.with_order_by) {
            q.order_by = {{tmpl.left, false}};
          }
          break;
        }
      }
      if (!st.ok()) return st;
      out.push_back(std::move(q));
    }
  }
  return out;
}

}  // namespace qcfe
