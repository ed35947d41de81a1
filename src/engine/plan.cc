#include "engine/plan.h"

#include "util/string_util.h"

namespace qcfe {

const char* OpTypeName(OpType op) {
  switch (op) {
    case OpType::kSeqScan:
      return "Seq Scan";
    case OpType::kIndexScan:
      return "Index Scan";
    case OpType::kSort:
      return "Sort";
    case OpType::kAggregate:
      return "Aggregate";
    case OpType::kMaterialize:
      return "Materialize";
    case OpType::kHashJoin:
      return "Hash Join";
    case OpType::kMergeJoin:
      return "Merge Join";
    case OpType::kNestedLoop:
      return "Nested Loop";
  }
  return "?";
}

const std::vector<OpType>& AllOpTypes() {
  static const std::vector<OpType> kAll = {
      OpType::kSeqScan,     OpType::kIndexScan, OpType::kSort,
      OpType::kAggregate,   OpType::kMaterialize, OpType::kHashJoin,
      OpType::kMergeJoin,   OpType::kNestedLoop};
  return kAll;
}

void PlanNode::Visit(const std::function<void(PlanNode*)>& fn) {
  fn(this);
  for (auto& c : children) c->Visit(fn);
}

void PlanNode::VisitConst(const std::function<void(const PlanNode*)>& fn) const {
  fn(this);
  for (const auto& c : children) c->VisitConst(fn);
}

size_t PlanNode::CountNodes() const {
  size_t n = 1;
  for (const auto& c : children) n += c->CountNodes();
  return n;
}

double PlanNode::TotalActualMs() const {
  double total = actual_ms;
  for (const auto& c : children) total += c->TotalActualMs();
  return total;
}

std::string PlanNode::Fingerprint() const {
  std::string fp = OpTypeName(op);
  if (!table.empty()) fp += "(" + table + ")";
  if (!index_column.empty()) fp += "[idx:" + index_column + "]";
  if (!projection.empty()) fp += "[proj:" + Join(projection, ",") + "]";
  for (const auto& f : filters) fp += "{" + f.ToString() + "}";
  if (join.has_value()) fp += "{" + join->ToString() + "}";
  for (const auto& k : sort_keys) {
    fp += "<" + k.column.ToString() + (k.descending ? " desc" : "") + ">";
  }
  for (const auto& g : group_by) fp += "<g:" + g.ToString() + ">";
  for (const auto& a : aggregates) fp += "<a:" + a.ToString() + ">";
  if (distinct) fp += "<distinct>";
  fp += "[";
  for (const auto& c : children) fp += c->Fingerprint() + ";";
  fp += "]";
  return fp;
}

std::string PlanNode::ToString(int indent) const {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  std::string out = pad + OpTypeName(op);
  if (!table.empty()) out += " on " + table;
  if (!index_column.empty()) out += " using " + index_column;
  if (join.has_value()) out += " (" + join->ToString() + ")";
  if (!filters.empty()) {
    std::vector<std::string> fs;
    for (const auto& f : filters) fs.push_back(f.ToString());
    out += " filter(" + Join(fs, " and ") + ")";
  }
  out += "  (est_rows=" + FormatDouble(est_rows, 0) +
         " cost=" + FormatDouble(est_cost, 1) +
         " actual_rows=" + FormatDouble(actual_rows, 0) +
         " ms=" + FormatDouble(actual_ms, 3) + ")";
  for (const auto& c : children) out += "\n" + c->ToString(indent + 1);
  return out;
}

std::unique_ptr<PlanNode> PlanNode::Clone() const {
  auto copy = std::make_unique<PlanNode>();
  copy->op = op;
  copy->table = table;
  copy->index_column = index_column;
  copy->projection = projection;
  copy->filters = filters;
  copy->join = join;
  copy->sort_keys = sort_keys;
  copy->group_by = group_by;
  copy->aggregates = aggregates;
  copy->distinct = distinct;
  copy->est_rows = est_rows;
  copy->est_width = est_width;
  copy->est_cost = est_cost;
  copy->est_self_cost = est_self_cost;
  copy->actual_rows = actual_rows;
  copy->input_card = input_card;
  copy->input_card2 = input_card2;
  copy->work = work;
  copy->actual_ms = actual_ms;
  for (const auto& c : children) copy->children.push_back(c->Clone());
  return copy;
}

}  // namespace qcfe
