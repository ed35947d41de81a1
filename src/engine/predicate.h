#ifndef QCFE_ENGINE_PREDICATE_H_
#define QCFE_ENGINE_PREDICATE_H_

/// \file predicate.h
/// Filter predicates of the query IR: `table.column OP literal(s)`, the
/// conjunctive-predicate language used by all three benchmark workloads
/// (and by the simplified templates of paper Algorithm 1, whose random
/// keyword set {<, >, =, in, like, ...} maps onto CompareOp).

#include <string>
#include <string_view>
#include <vector>

#include "engine/stats.h"
#include "engine/types.h"

namespace qcfe {

/// Comparison keyword.
enum class CompareOp {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kIn,       ///< value in literal list
  kLike,     ///< string pattern with '%' wildcards
  kBetween,  ///< two literals, inclusive
};

/// Name as it appears in SQL text ("=", "<", "in", ...).
const char* CompareOpName(CompareOp op);

/// A qualified column reference.
struct ColumnRef {
  std::string table;
  std::string column;

  std::string ToString() const { return table + "." + column; }
  bool operator==(const ColumnRef& other) const {
    return table == other.table && column == other.column;
  }
};

/// One conjunct: `column op literals`.
struct Predicate {
  ColumnRef column;
  CompareOp op = CompareOp::kEq;
  /// kEq..kGe and kLike use literals[0]; kBetween uses [0], [1]; kIn uses all.
  std::vector<Value> literals;

  /// Evaluates against a concrete value.
  bool Matches(const Value& v) const;

  /// Estimated fraction of rows passing, given column statistics.
  double EstimateSelectivity(const ColumnStats& stats) const;

  /// SQL-ish rendering, e.g. "lineitem.l_quantity between 5 and 25".
  std::string ToString() const;
};

/// '%'-wildcard match (case-sensitive), supporting leading/trailing/inner
/// wildcards; no escape syntax.
bool LikeMatch(const std::string& text, const std::string& pattern);

/// A LIKE pattern split once, for matching many texts: Matches(text) ==
/// LikeMatch(text, pattern).
class LikePattern {
 public:
  explicit LikePattern(const std::string& pattern);
  bool Matches(std::string_view text) const;

 private:
  std::vector<std::string> parts_;  ///< the pattern split on '%'
  bool anchored_start_;
  bool anchored_end_;
};

}  // namespace qcfe

#endif  // QCFE_ENGINE_PREDICATE_H_
