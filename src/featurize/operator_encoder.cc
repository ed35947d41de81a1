#include "featurize/operator_encoder.h"

#include <cmath>

namespace qcfe {

namespace {
constexpr size_t kNumPredOps = 9;   // CompareOp cardinality
constexpr size_t kNumAggKinds = 5;  // Aggregate::Kind cardinality

double Log1pSafe(double v) { return std::log1p(std::max(v, 0.0)); }
}  // namespace

OperatorEncoder::OperatorEncoder(const Catalog* catalog,
                                 EncoderOptions options)
    : catalog_(catalog), options_(options) {
  // Vocabularies from the catalog, in deterministic (sorted) order.
  std::vector<std::string> tables = catalog_->TableNames();
  for (const auto& t : tables) {
    if (table_slots_.size() < options_.max_tables) {
      table_slots_[t] = table_slots_.size();
    }
    const Table* table = catalog_->GetTable(t);
    for (const auto& idx : table->indexes()) {
      std::string key = t + "." + idx->column;
      if (index_slots_.size() < options_.max_indexes) {
        index_slots_[key] = index_slots_.size();
      }
    }
    for (const auto& col : table->schema().columns()) {
      std::string key = t + "." + col.name;
      if (column_slots_.size() < options_.max_columns) {
        column_slots_[key] = column_slots_.size();
      }
    }
  }

  // Re-number map slots in sorted-name order for determinism.
  size_t i = 0;
  for (auto& [name, slot] : table_slots_) slot = i++;
  i = 0;
  for (auto& [name, slot] : index_slots_) slot = i++;
  i = 0;
  for (auto& [name, slot] : column_slots_) slot = i++;

  // Build the schema (block by block).
  off_op_ = schema_.size();
  for (OpType op : AllOpTypes()) {
    schema_.Add(std::string("op=") + OpTypeName(op));
  }
  off_table_ = schema_.size();
  {
    std::vector<std::string> by_slot(options_.max_tables);
    for (const auto& [name, slot] : table_slots_) by_slot[slot] = name;
    for (size_t s = 0; s < options_.max_tables; ++s) {
      schema_.Add("table=" + (by_slot[s].empty()
                                  ? "unused" + std::to_string(s)
                                  : by_slot[s]));
    }
  }
  off_index_ = schema_.size();
  {
    std::vector<std::string> by_slot(options_.max_indexes);
    for (const auto& [name, slot] : index_slots_) by_slot[slot] = name;
    for (size_t s = 0; s < options_.max_indexes; ++s) {
      schema_.Add("idx=" + (by_slot[s].empty() ? "unused" + std::to_string(s)
                                               : by_slot[s]));
    }
  }
  off_column_ = schema_.size();
  {
    std::vector<std::string> by_slot(options_.max_columns);
    for (const auto& [name, slot] : column_slots_) by_slot[slot] = name;
    for (size_t s = 0; s < options_.max_columns; ++s) {
      schema_.Add("filtercol=" + (by_slot[s].empty()
                                      ? "unused" + std::to_string(s)
                                      : by_slot[s]));
    }
  }
  off_predop_ = schema_.size();
  for (size_t s = 0; s < kNumPredOps; ++s) {
    schema_.Add(std::string("predop=") +
                CompareOpName(static_cast<CompareOp>(s)));
  }
  off_jointable_ = schema_.size();
  {
    std::vector<std::string> by_slot(options_.max_tables);
    for (const auto& [name, slot] : table_slots_) by_slot[slot] = name;
    for (size_t s = 0; s < options_.max_tables; ++s) {
      schema_.Add("jointable=" + (by_slot[s].empty()
                                      ? "unused" + std::to_string(s)
                                      : by_slot[s]));
    }
  }
  off_numeric_ = schema_.size();
  schema_.Add("num.log_est_rows");
  schema_.Add("num.log_est_width");
  schema_.Add("num.log_est_self_cost");
  schema_.Add("num.log_est_total_cost");
  schema_.Add("num.depth");
  schema_.Add("num.num_children");
  schema_.Add("num.num_filters");
  schema_.Add("num.sort_key_count");
  schema_.Add("num.group_col_count");
  for (size_t s = 0; s < kNumAggKinds; ++s) {
    static const char* kAggNames[] = {"count", "sum", "avg", "min", "max"};
    schema_.Add(std::string("num.agg_") + kAggNames[s]);
  }
  schema_.Add("num.distinct_flag");
  off_padding_ = schema_.size();
  for (size_t s = 0; s < options_.padding; ++s) {
    schema_.Add("pad." + std::to_string(s));
  }
}

std::vector<double> OperatorEncoder::Encode(const PlanNode& node,
                                            size_t depth) const {
  std::vector<double> x(schema_.size(), 0.0);

  x[off_op_ + static_cast<size_t>(node.op)] = 1.0;

  if (!node.table.empty()) {
    auto it = table_slots_.find(node.table);
    if (it != table_slots_.end()) x[off_table_ + it->second] = 1.0;
  }
  if (!node.index_column.empty()) {
    auto it = index_slots_.find(node.table + "." + node.index_column);
    if (it != index_slots_.end()) x[off_index_ + it->second] = 1.0;
  }
  for (const auto& f : node.filters) {
    auto it = column_slots_.find(f.column.ToString());
    if (it != column_slots_.end()) x[off_column_ + it->second] = 1.0;
    x[off_predop_ + static_cast<size_t>(f.op)] += 1.0;
  }
  if (node.join.has_value()) {
    auto lt = table_slots_.find(node.join->left.table);
    if (lt != table_slots_.end()) x[off_jointable_ + lt->second] = 1.0;
    auto rt = table_slots_.find(node.join->right.table);
    if (rt != table_slots_.end()) x[off_jointable_ + rt->second] = 1.0;
    auto lc = column_slots_.find(node.join->left.ToString());
    if (lc != column_slots_.end()) x[off_column_ + lc->second] = 1.0;
    auto rc = column_slots_.find(node.join->right.ToString());
    if (rc != column_slots_.end()) x[off_column_ + rc->second] = 1.0;
  }
  for (const auto& k : node.sort_keys) {
    auto it = column_slots_.find(k.column.ToString());
    if (it != column_slots_.end()) x[off_column_ + it->second] = 1.0;
  }
  for (const auto& g : node.group_by) {
    auto it = column_slots_.find(g.ToString());
    if (it != column_slots_.end()) x[off_column_ + it->second] = 1.0;
  }

  size_t n = off_numeric_;
  x[n + 0] = Log1pSafe(node.est_rows);
  x[n + 1] = Log1pSafe(node.est_width);
  x[n + 2] = Log1pSafe(node.est_self_cost);
  x[n + 3] = Log1pSafe(node.est_cost);
  x[n + 4] = static_cast<double>(depth);
  x[n + 5] = static_cast<double>(node.num_children());
  x[n + 6] = static_cast<double>(node.filters.size());
  x[n + 7] = static_cast<double>(node.sort_keys.size());
  x[n + 8] = static_cast<double>(node.group_by.size());
  for (const auto& a : node.aggregates) {
    x[n + 9 + static_cast<size_t>(a.kind)] += 1.0;
  }
  x[n + 14] = node.distinct ? 1.0 : 0.0;
  // Padding dims stay zero by construction.
  return x;
}

}  // namespace qcfe
