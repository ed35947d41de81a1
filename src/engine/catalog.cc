#include "engine/catalog.h"

namespace qcfe {

Status Catalog::AddTable(std::unique_ptr<Table> table) {
  const std::string& name = table->name();
  if (tables_.count(name) > 0) {
    return Status::InvalidArgument("duplicate table " + name);
  }
  tables_[name] = std::move(table);
  return Status::OK();
}

const Table* Catalog::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

void Catalog::AnalyzeAll() {
  stats_.clear();
  for (const auto& [name, table] : tables_) {
    stats_[name] = AnalyzeTable(*table);
  }
}

const TableStats* Catalog::GetStats(const std::string& table) const {
  auto it = stats_.find(table);
  return it == stats_.end() ? nullptr : &it->second;
}

const ColumnStats* Catalog::GetColumnStats(const std::string& table,
                                           const std::string& column) const {
  const TableStats* ts = GetStats(table);
  if (ts == nullptr) return nullptr;
  auto it = ts->columns.find(column);
  return it == ts->columns.end() ? nullptr : &it->second;
}

double Catalog::TotalSizeMb() const {
  double pages = 0.0;
  for (const auto& [name, table] : tables_) {
    pages += static_cast<double>(table->num_pages());
  }
  return pages * static_cast<double>(kPageSizeBytes) / (1024.0 * 1024.0);
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

}  // namespace qcfe
