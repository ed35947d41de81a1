#ifndef QCFE_ENGINE_CATALOG_H_
#define QCFE_ENGINE_CATALOG_H_

/// \file catalog.h
/// Table registry + statistics store. One Catalog per benchmark database.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/stats.h"
#include "engine/table.h"

namespace qcfe {

/// Owns all base tables and their ANALYZE statistics.
class Catalog {
 public:
  /// Registers a table; fails on duplicate names.
  Status AddTable(std::unique_ptr<Table> table);

  /// The named table, or nullptr.
  const Table* GetTable(const std::string& name) const;

  /// Recomputes statistics for every table (run after data loading).
  void AnalyzeAll();

  /// Statistics for a table, or nullptr if not analyzed / unknown.
  const TableStats* GetStats(const std::string& table) const;

  /// Statistics for one column, or nullptr.
  const ColumnStats* GetColumnStats(const std::string& table,
                                    const std::string& column) const;

  /// Total heap size across tables in MB (drives the buffer-cache hit model).
  double TotalSizeMb() const;

  std::vector<std::string> TableNames() const;
  size_t num_tables() const { return tables_.size(); }

 private:
  std::map<std::string, std::unique_ptr<Table>> tables_;
  std::map<std::string, TableStats> stats_;
};

}  // namespace qcfe

#endif  // QCFE_ENGINE_CATALOG_H_
