#include "engine/executor.h"

#include <cstdio>
#include <cstdlib>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "util/check.h"

namespace qcfe {

namespace {

constexpr uint32_t kNoRow = std::numeric_limits<uint32_t>::max();

double Log2Safe(double n) { return std::log2(std::max(n, 2.0)); }

/// Bucket of a 64-bit hash in a table of 2^(64 - shift) slots (Fibonacci
/// hashing spreads the FNV low bits over the whole table).
size_t Bucket(uint64_t hash, int shift) {
  return static_cast<size_t>((hash * 0x9E3779B97F4A7C15ULL) >> shift);
}

/// Shift for a power-of-two table with at least 2 * n slots.
int ShiftFor(size_t n) {
  int bits = 1;
  while ((size_t{1} << bits) < 2 * n) ++bits;
  return 64 - bits;
}

/// One relation column read through the relation's row ids.
class ColumnReader {
 public:
  ColumnReader(const RowIdRelation& rel, size_t col)
      : column_(&rel.sources[rel.columns[col].source]->column(
            rel.columns[col].column)),
        ids_(rel.ids.data()),
        stride_(rel.sources.size()),
        offset_(rel.columns[col].source) {}

  const Column& column() const { return *column_; }
  /// Row id into the source table of relation row `row`.
  uint32_t RowId(size_t row) const { return ids_[row * stride_ + offset_]; }
  uint64_t HashAt(size_t row) const { return column_->HashAt(RowId(row)); }
  double GetDouble(size_t row) const { return column_->GetDouble(RowId(row)); }

 private:
  const Column* column_;
  const uint32_t* ids_;
  size_t stride_;
  size_t offset_;
};

/// A predicate bound to one typed base column: Matches(row) ==
/// pred.Matches(column.Get(row)), without building a Value per row.
class BoundFilter {
 public:
  BoundFilter(const Predicate& pred, const Column& column)
      : op_(pred.op),
        column_(&column),
        numeric_column_(column.type() != DataType::kString) {
    for (const Value& lit : pred.literals) {
      Literal l;
      l.numeric = lit.index() != 2;
      if (l.numeric) {
        l.number = ValueToDouble(lit);
      } else {
        l.text = &std::get<std::string>(lit);
      }
      literals_.push_back(l);
    }
    if (op_ == CompareOp::kLike && !numeric_column_ && !literals_[0].numeric) {
      like_ = std::make_unique<LikePattern>(*literals_[0].text);
    }
  }

  bool Matches(uint32_t row) const {
    switch (op_) {
      case CompareOp::kEq:
        return Compare(row, 0) == 0;
      case CompareOp::kNe:
        return Compare(row, 0) != 0;
      case CompareOp::kLt:
        return Compare(row, 0) < 0;
      case CompareOp::kLe:
        return Compare(row, 0) <= 0;
      case CompareOp::kGt:
        return Compare(row, 0) > 0;
      case CompareOp::kGe:
        return Compare(row, 0) >= 0;
      case CompareOp::kIn:
        for (size_t i = 0; i < literals_.size(); ++i) {
          if (Compare(row, i) == 0) return true;
        }
        return false;
      case CompareOp::kLike:
        // LIKE matches only a string value against a string pattern.
        return like_ != nullptr && like_->Matches(column_->strings()[row]);
      case CompareOp::kBetween:
        return Compare(row, 0) >= 0 && Compare(row, 1) <= 0;
    }
    return false;
  }

 private:
  struct Literal {
    bool numeric = false;
    double number = 0.0;
    const std::string* text = nullptr;
  };

  /// CompareValues(column.Get(row), literal i).
  int Compare(uint32_t row, size_t i) const {
    const Literal& lit = literals_[i];
    if (numeric_column_ != lit.numeric) return numeric_column_ ? -1 : 1;
    if (numeric_column_) {
      double x = column_->GetDouble(row);
      if (x < lit.number) return -1;
      if (x > lit.number) return 1;
      return 0;
    }
    int cmp = column_->strings()[row].compare(*lit.text);
    return (cmp > 0) - (cmp < 0);
  }

  CompareOp op_;
  const Column* column_;
  bool numeric_column_;
  std::vector<Literal> literals_;
  std::unique_ptr<LikePattern> like_;
};

/// Index of a relation column by qualified name, falling back to the bare
/// column name.
std::optional<size_t> FindRelationColumn(const Schema& schema,
                                         const ColumnRef& ref) {
  auto idx = schema.FindColumn(ref.ToString());
  if (!idx.has_value()) idx = schema.FindColumn(ref.column);
  return idx;
}

/// Narrows an index to a uint32_t row id (checked: every id must fit).
uint32_t ToRowId(size_t i) {
  QCFE_CHECK(i < kNoRow, "row index exceeds the uint32_t row-id range");
  return static_cast<uint32_t>(i);
}

}  // namespace

Relation RowIdRelation::Materialize(size_t max_rows) const {
  Relation out;
  out.schema = schema;
  size_t n = std::min(NumRows(), max_rows);
  out.rows.reserve(n);
  for (size_t r = 0; r < n; ++r) {
    std::vector<Value> row;
    row.reserve(columns.size());
    for (const SourceColumn& c : columns) {
      row.push_back(
          sources[c.source]->GetValue(ids[r * sources.size() + c.source],
                                      c.column));
    }
    out.rows.push_back(std::move(row));
  }
  return out;
}

Executor::Executor(const Catalog* catalog, const Knobs& knobs)
    : catalog_(catalog), knobs_(knobs) {
  if (catalog_ == nullptr) {
    // A null catalog is a lifetime bug in the caller; fail loudly instead of
    // dereferencing it on some later execution path.
    std::fprintf(stderr, "Executor constructed with a null catalog\n");
    std::abort();
  }
}

Result<RowIdRelation> Executor::Execute(PlanNode* node) const {
  switch (node->op) {
    case OpType::kSeqScan:
    case OpType::kIndexScan:
      return ExecScan(node);
    case OpType::kSort:
      return ExecSort(node);
    case OpType::kAggregate:
      return ExecAggregate(node);
    case OpType::kMaterialize:
      return ExecMaterialize(node);
    case OpType::kHashJoin:
    case OpType::kMergeJoin:
    case OpType::kNestedLoop:
      return ExecJoin(node);
  }
  return Status::Internal("unknown operator");
}

Result<RowIdRelation> Executor::ExecScan(PlanNode* node) const {
  const Table* table = catalog_->GetTable(node->table);
  if (table == nullptr) return Status::NotFound("table " + node->table);
  const size_t n = table->num_rows();
  QCFE_CHECK(n <= kNoRow, "table too large for uint32_t row ids");
  const bool index_scan = node->op == OpType::kIndexScan;
  const TableIndex* index = nullptr;
  if (index_scan) {
    index = table->FindIndex(node->index_column);
    if (index == nullptr) {
      return Status::NotFound("index on " + node->table + "." +
                              node->index_column);
    }
  }

  // Output columns: the projection (empty = all), qualified "table.column".
  RowIdRelation out;
  out.sources = {table};
  auto add_column = [&](size_t c) {
    const ColumnDef& def = table->schema().column(c);
    out.schema.AddColumn({table->name() + "." + def.name, def.type});
    out.columns.push_back({0, static_cast<uint32_t>(c)});
  };
  if (node->projection.empty()) {
    for (size_t c = 0; c < table->schema().num_columns(); ++c) add_column(c);
  } else {
    for (const auto& name : node->projection) {
      auto c = table->schema().FindColumn(name);
      if (!c.has_value()) {
        return Status::NotFound("column " + name + " in " + table->name());
      }
      add_column(*c);
    }
  }

  // Candidate rows: every row, or the index probe's matches.
  std::vector<uint32_t> rows;
  if (index_scan) {
    // Derive the probe range from the sargable predicates on the index
    // column. Per side the stricter bound wins together with its own
    // inclusiveness: a larger lower bound, or at an equal value the
    // exclusive one (and symmetrically for the upper bound).
    double lo = -HUGE_VAL, hi = HUGE_VAL;
    bool lo_inc = true, hi_inc = true;
    auto raise_lo = [&](double v, bool inc) {
      if (v > lo || (v == lo && !inc)) {
        lo = v;
        lo_inc = inc;
      }
    };
    auto lower_hi = [&](double v, bool inc) {
      if (v < hi || (v == hi && !inc)) {
        hi = v;
        hi_inc = inc;
      }
    };
    for (const auto& f : node->filters) {
      if (f.column.column != node->index_column) continue;
      switch (f.op) {
        case CompareOp::kEq:
          raise_lo(ValueToDouble(f.literals[0]), true);
          lower_hi(ValueToDouble(f.literals[0]), true);
          break;
        case CompareOp::kLt:
          lower_hi(ValueToDouble(f.literals[0]), false);
          break;
        case CompareOp::kLe:
          lower_hi(ValueToDouble(f.literals[0]), true);
          break;
        case CompareOp::kGt:
          raise_lo(ValueToDouble(f.literals[0]), false);
          break;
        case CompareOp::kGe:
          raise_lo(ValueToDouble(f.literals[0]), true);
          break;
        case CompareOp::kBetween:
          raise_lo(ValueToDouble(f.literals[0]), true);
          lower_hi(ValueToDouble(f.literals[1]), true);
          break;
        default:
          break;
      }
    }
    index->tree->RangeScan(lo, lo_inc, hi, hi_inc, &rows);
  } else {
    rows.resize(n);
    std::iota(rows.begin(), rows.end(), uint32_t{0});
  }
  const double candidates = static_cast<double>(rows.size());

  // Every filter (index-column ones included) narrows the candidates in
  // place; the survivors keep their candidate order.
  for (const auto& f : node->filters) {
    auto ci = table->schema().FindColumn(f.column.column);
    if (!ci.has_value()) {
      return Status::NotFound("filter column " + f.column.ToString());
    }
    BoundFilter filter(f, table->column(*ci));
    rows.erase(std::remove_if(rows.begin(), rows.end(),
                              [&](uint32_t r) { return !filter.Matches(r); }),
               rows.end());
  }

  out.ids = std::move(rows);

  node->actual_rows = static_cast<double>(out.NumRows());
  node->work = WorkCounts{};
  if (!index_scan) {
    node->input_card = static_cast<double>(n);
    node->work.seq_pages = static_cast<double>(table->num_pages());
    node->work.tuples = static_cast<double>(n);
    return out;
  }
  node->input_card = candidates;
  node->work.index_tuples = candidates;
  node->work.tuples = candidates;  // residual filter evaluation
  // Heap fetches: random for uncorrelated columns, near-sequential for
  // clustered ones (mirrors the planner's correlation-based costing).
  const ColumnStats* cs =
      catalog_->GetColumnStats(node->table, node->index_column);
  double corr = cs == nullptr ? 0.0 : std::fabs(cs->correlation);
  double width = static_cast<double>(table->schema().RowWidth());
  node->work.rand_pages = 0.6 * candidates * (1.0 - corr) +
                          static_cast<double>(index->tree->height());
  node->work.seq_pages += corr * candidates * width /
                          static_cast<double>(kPageSizeBytes);
  return out;
}

Result<RowIdRelation> Executor::ExecSort(PlanNode* node) const {
  Result<RowIdRelation> child = Execute(node->child(0));
  if (!child.ok()) return child.status();
  RowIdRelation rel = std::move(child.value());
  const size_t n = rel.NumRows();

  // Sort keys, extracted once: numbers compare as doubles and strings
  // lexicographically, exactly as CompareValues orders them (a relation
  // column holds values of one type).
  struct SortKey {
    bool descending = false;
    std::vector<double> numbers;
    std::vector<const std::string*> texts;
  };
  std::vector<SortKey> keys;
  for (const auto& k : node->sort_keys) {
    auto idx = FindRelationColumn(rel.schema, k.column);
    if (!idx.has_value()) {
      return Status::NotFound("sort column " + k.column.ToString());
    }
    ColumnReader reader(rel, *idx);
    SortKey key;
    key.descending = k.descending;
    if (reader.column().type() == DataType::kString) {
      key.texts.reserve(n);
      for (size_t r = 0; r < n; ++r) {
        key.texts.push_back(&reader.column().strings()[reader.RowId(r)]);
      }
    } else {
      key.numbers.reserve(n);
      for (size_t r = 0; r < n; ++r) key.numbers.push_back(reader.GetDouble(r));
    }
    keys.push_back(std::move(key));
  }

  QCFE_CHECK(n < kNoRow, "sort input exceeds the uint32_t row-id range");
  std::vector<uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), uint32_t{0});
  std::stable_sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
    for (const SortKey& key : keys) {
      int cmp = 0;
      if (key.texts.empty()) {
        double x = key.numbers[a], y = key.numbers[b];
        cmp = x < y ? -1 : (x > y ? 1 : 0);
      } else {
        int c = key.texts[a]->compare(*key.texts[b]);
        cmp = (c > 0) - (c < 0);
      }
      if (cmp != 0) return key.descending ? cmp > 0 : cmp < 0;
    }
    return false;
  });
  const size_t stride = rel.sources.size();
  std::vector<uint32_t> sorted;
  sorted.reserve(rel.ids.size());
  for (uint32_t r : perm) {
    const uint32_t* tuple = rel.ids.data() + r * stride;
    sorted.insert(sorted.end(), tuple, tuple + stride);
  }
  rel.ids = std::move(sorted);

  double rows = static_cast<double>(n);
  node->actual_rows = rows;
  node->input_card = rows;
  node->work = WorkCounts{};
  node->work.tuples = rows;
  node->work.op_units = rows * Log2Safe(rows);
  // External sort: spill runs when the input exceeds work_mem.
  double bytes = rel.SizeBytes();
  if (bytes > knobs_.work_mem_kb * 1024.0) {
    node->work.seq_pages += 2.0 * bytes / static_cast<double>(kPageSizeBytes);
  }
  return rel;
}

Result<RowIdRelation> Executor::ExecAggregate(PlanNode* node) const {
  Result<RowIdRelation> child = Execute(node->child(0));
  if (!child.ok()) return child.status();
  const RowIdRelation in = std::move(child.value());
  const size_t n = in.NumRows();

  // Resolve group columns.
  std::vector<size_t> group_cols;
  std::vector<ColumnReader> keys;
  for (const auto& g : node->group_by) {
    auto idx = FindRelationColumn(in.schema, g);
    if (!idx.has_value()) {
      return Status::NotFound("group column " + g.ToString());
    }
    group_cols.push_back(*idx);
    keys.emplace_back(in, *idx);
  }
  // Resolve aggregate argument columns (COUNT(*) has none).
  const size_t n_aggs = node->aggregates.size();
  std::vector<std::optional<ColumnReader>> args;
  for (const auto& a : node->aggregates) {
    if (a.kind == Aggregate::Kind::kCount && a.column.column.empty()) {
      args.emplace_back();
      continue;
    }
    auto idx = FindRelationColumn(in.schema, a.column);
    if (!idx.has_value()) {
      return Status::NotFound("aggregate column " + a.column.ToString());
    }
    args.emplace_back(ColumnReader(in, *idx));
  }

  // Groups in first-seen order. Two rows share a group when their key
  // hashes are equal and, guarding against hash collisions, their key
  // values compare equal. `slots` is an open-addressing table of group
  // indices keyed on the combined key hash.
  const size_t n_keys = keys.size();
  std::vector<uint64_t> group_hash;       // combined key hash per group
  std::vector<uint64_t> group_key_hash;   // n_keys per group
  std::vector<size_t> group_first_row;    // representative input row
  std::vector<double> counts, sums, mins, maxs;  // n_aggs per group
  std::vector<uint64_t> row_key_hash(n_keys);
  int shift = ShiftFor(16);
  std::vector<uint32_t> slots(size_t{1} << (64 - shift), kNoRow);

  for (size_t r = 0; r < n; ++r) {
    uint64_t hash = 0;
    for (size_t k = 0; k < n_keys; ++k) {
      row_key_hash[k] = keys[k].HashAt(r);
      hash = (hash ^ row_key_hash[k]) * 0x100000001B3ULL;
    }
    const size_t mask = slots.size() - 1;
    size_t slot = Bucket(hash, shift);
    uint32_t g = kNoRow;
    for (; slots[slot] != kNoRow; slot = (slot + 1) & mask) {
      const uint32_t cand = slots[slot];
      if (group_hash[cand] != hash) continue;
      bool same = true;
      const size_t first = group_first_row[cand];
      for (size_t k = 0; k < n_keys && same; ++k) {
        same = group_key_hash[cand * n_keys + k] == row_key_hash[k] &&
               keys[k].column().CompareAt(keys[k].RowId(r), keys[k].column(),
                                          keys[k].RowId(first)) == 0;
      }
      if (same) {
        g = cand;
        break;
      }
    }
    if (g == kNoRow) {
      g = ToRowId(group_hash.size());
      slots[slot] = g;
      group_hash.push_back(hash);
      group_key_hash.insert(group_key_hash.end(), row_key_hash.begin(),
                            row_key_hash.end());
      group_first_row.push_back(r);
      counts.push_back(0.0);
      sums.insert(sums.end(), n_aggs, 0.0);
      mins.insert(mins.end(), n_aggs, HUGE_VAL);
      maxs.insert(maxs.end(), n_aggs, -HUGE_VAL);
      if (2 * group_hash.size() > slots.size()) {
        // Keep the load at most one half: double and reinsert.
        shift = ShiftFor(group_hash.size());
        slots.assign(size_t{1} << (64 - shift), kNoRow);
        const size_t grown_mask = slots.size() - 1;
        for (uint32_t h = 0; h < group_hash.size(); ++h) {
          size_t s = Bucket(group_hash[h], shift);
          while (slots[s] != kNoRow) s = (s + 1) & grown_mask;
          slots[s] = h;
        }
      }
    }
    counts[g] += 1.0;
    for (size_t a = 0; a < n_aggs; ++a) {
      double v = args[a].has_value() ? args[a]->GetDouble(r) : 1.0;
      size_t at = g * n_aggs + a;
      sums[at] += v;
      mins[at] = std::min(mins[at], v);
      maxs[at] = std::max(maxs[at], v);
    }
  }

  // The groups table: key values, then one float64 column per aggregate.
  Schema schema;
  std::vector<std::unique_ptr<Column>> columns;
  for (size_t k = 0; k < n_keys; ++k) {
    const ColumnDef& def = in.schema.column(group_cols[k]);
    schema.AddColumn(def);
    auto col = std::make_unique<Column>(def.type);
    for (size_t first : group_first_row) {
      col->AppendFrom(keys[k].column(), keys[k].RowId(first));
    }
    columns.push_back(std::move(col));
  }
  // Global aggregate over zero rows still emits one row (COUNT(*) = 0).
  const bool empty_global = group_hash.empty() && n_keys == 0 && n_aggs > 0;
  const size_t n_groups = empty_global ? 1 : group_hash.size();
  for (size_t a = 0; a < n_aggs; ++a) {
    schema.AddColumn({node->aggregates[a].ToString(), DataType::kFloat64});
    auto col = std::make_unique<Column>(DataType::kFloat64);
    for (size_t g = 0; g < group_hash.size(); ++g) {
      size_t at = g * n_aggs + a;
      double v = 0.0;
      switch (node->aggregates[a].kind) {
        case Aggregate::Kind::kCount:
          v = counts[g];
          break;
        case Aggregate::Kind::kSum:
          v = sums[at];
          break;
        case Aggregate::Kind::kAvg:
          v = counts[g] > 0 ? sums[at] / counts[g] : 0.0;
          break;
        case Aggregate::Kind::kMin:
          v = mins[at];
          break;
        case Aggregate::Kind::kMax:
          v = maxs[at];
          break;
      }
      col->AppendDouble(v);
    }
    // COUNT/SUM/... over zero rows are all 0.
    if (empty_global) col->AppendDouble(0.0);
    columns.push_back(std::move(col));
  }
  std::shared_ptr<const Table> groups =
      Table::FromColumns("aggregate", schema, std::move(columns), n_groups);

  RowIdRelation out;
  out.schema = std::move(schema);
  for (size_t c = 0; c < out.schema.num_columns(); ++c) {
    out.columns.push_back({0, static_cast<uint32_t>(c)});
  }
  out.sources = {groups.get()};
  out.owned = {groups};
  out.ids.resize(n_groups);
  std::iota(out.ids.begin(), out.ids.end(), uint32_t{0});

  double rows = static_cast<double>(n);
  node->actual_rows = static_cast<double>(out.NumRows());
  node->input_card = rows;
  node->work = WorkCounts{};
  node->work.tuples = rows;
  node->work.op_units = rows;
  return out;
}

Result<RowIdRelation> Executor::ExecMaterialize(PlanNode* node) const {
  Result<RowIdRelation> child = Execute(node->child(0));
  if (!child.ok()) return child.status();
  RowIdRelation rel = std::move(child.value());
  double n = static_cast<double>(rel.NumRows());
  node->actual_rows = n;
  node->input_card = n;
  node->work = WorkCounts{};
  node->work.tuples = n;
  node->work.op_units = n;
  double bytes = rel.SizeBytes();
  if (bytes > knobs_.work_mem_kb * 1024.0) {
    node->work.seq_pages += 2.0 * bytes / static_cast<double>(kPageSizeBytes);
  }
  return rel;
}

Result<RowIdRelation> Executor::EquiJoin(PlanNode* node,
                                         const RowIdRelation& left,
                                         const RowIdRelation& right) const {
  if (!node->join.has_value()) {
    return Status::InvalidArgument("join node without condition");
  }
  auto lidx = left.schema.FindColumn(node->join->left.ToString());
  auto ridx = right.schema.FindColumn(node->join->right.ToString());
  if (!lidx.has_value() || !ridx.has_value()) {
    return Status::NotFound("join key " + node->join->ToString());
  }
  const ColumnReader lkey(left, *lidx);
  const ColumnReader rkey(right, *ridx);

  RowIdRelation out;
  out.schema = Schema::Concat(left.schema, right.schema);
  const uint32_t lsources = static_cast<uint32_t>(left.sources.size());
  out.columns = left.columns;
  for (RowIdRelation::SourceColumn c : right.columns) {
    out.columns.push_back({c.source + lsources, c.column});
  }
  out.sources = left.sources;
  out.sources.insert(out.sources.end(), right.sources.begin(),
                     right.sources.end());
  out.owned = left.owned;
  out.owned.insert(out.owned.end(), right.owned.begin(), right.owned.end());

  // Hash the right side on the key: `head` holds each bucket's first build
  // row and `next` chains the rest in ascending row order, so a probe meets
  // its matches in build order.
  const size_t n_right = right.NumRows();
  QCFE_CHECK(n_right < kNoRow, "join build side exceeds the uint32_t range");
  const int shift = ShiftFor(n_right);
  std::vector<uint32_t> head(size_t{1} << (64 - shift), kNoRow);
  std::vector<uint32_t> next(n_right);
  std::vector<uint64_t> hashes(n_right);
  for (size_t r = n_right; r-- > 0;) {
    hashes[r] = rkey.HashAt(r);
    uint32_t& bucket = head[Bucket(hashes[r], shift)];
    next[r] = bucket;
    bucket = static_cast<uint32_t>(r);
  }

  // Probe with the left side in order; concatenate matching id tuples.
  const size_t lstride = left.sources.size();
  const size_t rstride = right.sources.size();
  for (size_t l = 0; l < left.NumRows(); ++l) {
    const uint64_t hash = lkey.HashAt(l);
    for (uint32_t r = head[Bucket(hash, shift)]; r != kNoRow; r = next[r]) {
      // Guard against hash collisions with a real comparison.
      if (hashes[r] != hash ||
          lkey.column().CompareAt(lkey.RowId(l), rkey.column(),
                                  rkey.RowId(r)) != 0) {
        continue;
      }
      const uint32_t* ltuple = left.ids.data() + l * lstride;
      const uint32_t* rtuple = right.ids.data() + size_t{r} * rstride;
      out.ids.insert(out.ids.end(), ltuple, ltuple + lstride);
      out.ids.insert(out.ids.end(), rtuple, rtuple + rstride);
    }
  }
  return out;
}

Result<RowIdRelation> Executor::ExecJoin(PlanNode* node) const {
  Result<RowIdRelation> l = Execute(node->child(0));
  if (!l.ok()) return l.status();
  Result<RowIdRelation> r = Execute(node->child(1));
  if (!r.ok()) return r.status();

  // Every join algorithm computes its result hash-based (merge join
  // children are sorted on the keys by plan construction; a real nested
  // loop produces the same multiset of rows); the work counts charge what
  // each algorithm logically does.
  Result<RowIdRelation> joined = EquiJoin(node, l.value(), r.value());
  if (!joined.ok()) return joined.status();

  double n1 = static_cast<double>(l.value().NumRows());
  double n2 = static_cast<double>(r.value().NumRows());
  node->actual_rows = static_cast<double>(joined.value().NumRows());
  node->input_card = n1 + n2;
  node->work = WorkCounts{};
  node->work.tuples = n1 + n2;
  switch (node->op) {
    case OpType::kHashJoin: {
      node->work.op_units = 1.5 * n2 + n1;  // build then probe
      double build_bytes = r.value().SizeBytes();
      if (build_bytes > knobs_.work_mem_kb * 1024.0) {
        // Grace hash join: both sides written out and re-read once.
        node->work.seq_pages += 2.0 * (build_bytes + l.value().SizeBytes()) /
                                static_cast<double>(kPageSizeBytes);
      }
      break;
    }
    case OpType::kMergeJoin:
      node->work.op_units = n1 + n2;
      break;
    default:  // kNestedLoop: quadratic inner rescans
      node->input_card = n1;
      node->input_card2 = n2;
      node->work.op_units = n1 * n2;
      break;
  }
  return joined;
}

}  // namespace qcfe
