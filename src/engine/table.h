#ifndef QCFE_ENGINE_TABLE_H_
#define QCFE_ENGINE_TABLE_H_

/// \file table.h
/// Columnar in-memory base tables plus secondary indexes (B+-trees on the
/// numeric view of a column). Tables are append-only: the workload layer
/// generates them once, then queries only read.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/btree.h"
#include "engine/schema.h"
#include "engine/types.h"
#include "util/status.h"

namespace qcfe {

/// Page size used for I/O accounting (PostgreSQL default).
constexpr size_t kPageSizeBytes = 8192;

/// One typed column of a base table.
class Column {
 public:
  explicit Column(DataType type) : type_(type) {}

  DataType type() const { return type_; }
  size_t size() const;

  void Append(const Value& v);
  void AppendDouble(double v);

  /// Appends row `row` of `src`, which must have this column's type.
  void AppendFrom(const Column& src, size_t row);

  Value Get(size_t row) const;
  /// Numeric view (strings hash; see ValueToDouble).
  double GetDouble(size_t row) const;
  /// HashValue(Get(row)), without building the Value.
  uint64_t HashAt(size_t row) const;
  /// CompareValues(Get(row), other.Get(other_row)), without building the
  /// Values.
  int CompareAt(size_t row, const Column& other, size_t other_row) const;

  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }
  const std::vector<std::string>& strings() const { return strings_; }

 private:
  DataType type_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
};

/// Secondary index metadata + structure.
struct TableIndex {
  std::string name;
  std::string column;
  std::unique_ptr<BPlusTree> tree;
};

/// A named base table: schema + columns + indexes.
class Table {
 public:
  Table(std::string name, Schema schema);

  /// A table over already-built columns, one per schema column, each of
  /// its schema column's type and `num_rows` long (checked). Operators use
  /// it for the small tables they build, e.g. an Aggregate's groups.
  static std::unique_ptr<Table> FromColumns(
      std::string name, Schema schema,
      std::vector<std::unique_ptr<Column>> columns, size_t num_rows);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }

  /// Heap pages occupied by the row data (ceil of bytes / page size).
  size_t num_pages() const;

  /// Appends one row; value count and types must match the schema
  /// (numeric values are coerced between int64 and float64).
  Status AppendRow(const std::vector<Value>& values);

  Value GetValue(size_t row, size_t col) const;
  double GetDouble(size_t row, size_t col) const;
  const Column& column(size_t col) const { return *columns_[col]; }

  /// Builds (or rebuilds) a B+-tree index on the numeric view of a column.
  Status BuildIndex(const std::string& column_name);

  /// Index on the column, or nullptr.
  const TableIndex* FindIndex(const std::string& column_name) const;
  const std::vector<std::unique_ptr<TableIndex>>& indexes() const {
    return indexes_;
  }

 private:
  std::string name_;
  Schema schema_;
  std::vector<std::unique_ptr<Column>> columns_;
  std::vector<std::unique_ptr<TableIndex>> indexes_;
  size_t num_rows_ = 0;
};

}  // namespace qcfe

#endif  // QCFE_ENGINE_TABLE_H_
