#include "engine/table.h"

#include "util/check.h"

namespace qcfe {

size_t Column::size() const {
  switch (type_) {
    case DataType::kInt64:
      return ints_.size();
    case DataType::kFloat64:
      return doubles_.size();
    case DataType::kString:
      return strings_.size();
  }
  return 0;
}

void Column::Append(const Value& v) {
  switch (type_) {
    case DataType::kInt64:
      if (v.index() == 1) {
        ints_.push_back(static_cast<int64_t>(std::get<double>(v)));
      } else {
        ints_.push_back(std::get<int64_t>(v));
      }
      break;
    case DataType::kFloat64:
      if (v.index() == 0) {
        doubles_.push_back(static_cast<double>(std::get<int64_t>(v)));
      } else {
        doubles_.push_back(std::get<double>(v));
      }
      break;
    case DataType::kString:
      strings_.push_back(std::get<std::string>(v));
      break;
  }
}

void Column::AppendDouble(double v) { Append(Value(v)); }

Value Column::Get(size_t row) const {
  switch (type_) {
    case DataType::kInt64:
      return Value(ints_[row]);
    case DataType::kFloat64:
      return Value(doubles_[row]);
    case DataType::kString:
      return Value(strings_[row]);
  }
  return Value(int64_t{0});
}

void Column::AppendFrom(const Column& src, size_t row) {
  QCFE_CHECK(src.type_ == type_, "AppendFrom needs columns of one type");
  switch (type_) {
    case DataType::kInt64:
      ints_.push_back(src.ints_[row]);
      break;
    case DataType::kFloat64:
      doubles_.push_back(src.doubles_[row]);
      break;
    case DataType::kString:
      strings_.push_back(src.strings_[row]);
      break;
  }
}

double Column::GetDouble(size_t row) const {
  switch (type_) {
    case DataType::kInt64:
      return static_cast<double>(ints_[row]);
    case DataType::kFloat64:
      return doubles_[row];
    case DataType::kString:
      return StringToDouble(strings_[row]);
  }
  return 0.0;
}

uint64_t Column::HashAt(size_t row) const {
  switch (type_) {
    case DataType::kInt64:
      return HashInt64(ints_[row]);
    case DataType::kFloat64:
      return HashDouble(doubles_[row]);
    case DataType::kString:
      return HashString(strings_[row]);
  }
  return 0;
}

int Column::CompareAt(size_t row, const Column& other,
                      size_t other_row) const {
  const bool numeric = type_ != DataType::kString;
  const bool other_numeric = other.type_ != DataType::kString;
  if (numeric && other_numeric) {
    double x = GetDouble(row), y = other.GetDouble(other_row);
    if (x < y) return -1;
    if (x > y) return 1;
    return 0;
  }
  // Mixed comparison: numbers order before strings (see CompareValues).
  if (numeric != other_numeric) return numeric ? -1 : 1;
  int cmp = strings_[row].compare(other.strings_[other_row]);
  return (cmp > 0) - (cmp < 0);
}

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)), schema_(std::move(schema)) {
  for (const auto& col : schema_.columns()) {
    columns_.push_back(std::make_unique<Column>(col.type));
  }
}

std::unique_ptr<Table> Table::FromColumns(
    std::string name, Schema schema,
    std::vector<std::unique_ptr<Column>> columns, size_t num_rows) {
  QCFE_CHECK(columns.size() == schema.num_columns(),
             "FromColumns needs one column per schema column");
  for (size_t c = 0; c < columns.size(); ++c) {
    QCFE_CHECK(columns[c]->type() == schema.column(c).type &&
                   columns[c]->size() == num_rows,
               "FromColumns column type or length mismatch");
  }
  auto table = std::make_unique<Table>(std::move(name), std::move(schema));
  table->columns_ = std::move(columns);
  table->num_rows_ = num_rows;
  return table;
}

size_t Table::num_pages() const {
  size_t bytes = num_rows_ * schema_.RowWidth();
  return (bytes + kPageSizeBytes - 1) / kPageSizeBytes;
}

Status Table::AppendRow(const std::vector<Value>& values) {
  if (values.size() != schema_.num_columns()) {
    return Status::InvalidArgument("row arity mismatch for table " + name_);
  }
  for (size_t i = 0; i < values.size(); ++i) {
    DataType want = schema_.column(i).type;
    DataType got = ValueType(values[i]);
    bool numeric_coercion =
        (want != DataType::kString) && (got != DataType::kString);
    if (want != got && !numeric_coercion) {
      return Status::InvalidArgument("type mismatch in column " +
                                     schema_.column(i).name);
    }
  }
  for (size_t i = 0; i < values.size(); ++i) columns_[i]->Append(values[i]);
  ++num_rows_;
  return Status::OK();
}

Value Table::GetValue(size_t row, size_t col) const {
  return columns_[col]->Get(row);
}

double Table::GetDouble(size_t row, size_t col) const {
  return columns_[col]->GetDouble(row);
}

Status Table::BuildIndex(const std::string& column_name) {
  auto col_idx = schema_.FindColumn(column_name);
  if (!col_idx.has_value()) {
    return Status::NotFound("no column " + column_name + " in " + name_);
  }
  // Replace an existing index on the same column.
  for (auto& idx : indexes_) {
    if (idx->column == column_name) {
      idx->tree = std::make_unique<BPlusTree>();
      std::vector<std::pair<double, uint32_t>> entries;
      entries.reserve(num_rows_);
      for (size_t r = 0; r < num_rows_; ++r) {
        entries.emplace_back(GetDouble(r, *col_idx), static_cast<uint32_t>(r));
      }
      idx->tree->BulkLoad(std::move(entries));
      return Status::OK();
    }
  }
  auto index = std::make_unique<TableIndex>();
  index->name = name_ + "_" + column_name + "_idx";
  index->column = column_name;
  index->tree = std::make_unique<BPlusTree>();
  std::vector<std::pair<double, uint32_t>> entries;
  entries.reserve(num_rows_);
  for (size_t r = 0; r < num_rows_; ++r) {
    entries.emplace_back(GetDouble(r, *col_idx), static_cast<uint32_t>(r));
  }
  index->tree->BulkLoad(std::move(entries));
  indexes_.push_back(std::move(index));
  return Status::OK();
}

const TableIndex* Table::FindIndex(const std::string& column_name) const {
  for (const auto& idx : indexes_) {
    if (idx->column == column_name) return idx.get();
  }
  return nullptr;
}

}  // namespace qcfe
