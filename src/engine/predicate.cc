#include "engine/predicate.h"

#include <algorithm>

#include "util/string_util.h"

namespace qcfe {

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
    case CompareOp::kIn:
      return "in";
    case CompareOp::kLike:
      return "like";
    case CompareOp::kBetween:
      return "between";
  }
  return "?";
}

bool LikeMatch(const std::string& text, const std::string& pattern) {
  return LikePattern(pattern).Matches(text);
}

LikePattern::LikePattern(const std::string& pattern)
    : parts_(Split(pattern, '%')),
      anchored_start_(!pattern.empty() && pattern.front() != '%'),
      anchored_end_(!pattern.empty() && pattern.back() != '%') {}

bool LikePattern::Matches(std::string_view text) const {
  // Greedily match the fragments between wildcards in order.
  size_t pos = 0;
  for (size_t i = 0; i < parts_.size(); ++i) {
    const std::string& frag = parts_[i];
    if (frag.empty()) continue;
    size_t found = text.find(frag, pos);
    if (found == std::string_view::npos) return false;
    if (i == 0 && anchored_start_ && found != 0) return false;
    pos = found + frag.size();
  }
  if (anchored_end_) {
    // The last non-empty fragment must reach the end of the text.
    const std::string& last = parts_.back();
    if (text.size() < last.size()) return false;
    if (text.compare(text.size() - last.size(), last.size(), last) != 0) {
      return false;
    }
  }
  return true;
}

bool Predicate::Matches(const Value& v) const {
  switch (op) {
    case CompareOp::kEq:
      return CompareValues(v, literals[0]) == 0;
    case CompareOp::kNe:
      return CompareValues(v, literals[0]) != 0;
    case CompareOp::kLt:
      return CompareValues(v, literals[0]) < 0;
    case CompareOp::kLe:
      return CompareValues(v, literals[0]) <= 0;
    case CompareOp::kGt:
      return CompareValues(v, literals[0]) > 0;
    case CompareOp::kGe:
      return CompareValues(v, literals[0]) >= 0;
    case CompareOp::kIn:
      return std::any_of(literals.begin(), literals.end(), [&](const Value& l) {
        return CompareValues(v, l) == 0;
      });
    case CompareOp::kLike: {
      if (v.index() != 2 || literals[0].index() != 2) return false;
      return LikeMatch(std::get<std::string>(v),
                       std::get<std::string>(literals[0]));
    }
    case CompareOp::kBetween:
      return CompareValues(v, literals[0]) >= 0 &&
             CompareValues(v, literals[1]) <= 0;
  }
  return false;
}

double Predicate::EstimateSelectivity(const ColumnStats& stats) const {
  switch (op) {
    case CompareOp::kEq:
      return stats.EstimateSelectivity(0, ValueToDouble(literals[0]));
    case CompareOp::kNe:
      return stats.EstimateSelectivity(2, ValueToDouble(literals[0]));
    case CompareOp::kLt:
    case CompareOp::kLe:
      return stats.EstimateSelectivity(-1, ValueToDouble(literals[0]));
    case CompareOp::kGt:
    case CompareOp::kGe:
      return stats.EstimateSelectivity(1, ValueToDouble(literals[0]));
    case CompareOp::kIn: {
      double eq = stats.EstimateSelectivity(0, 0.0);
      return std::min(1.0, eq * static_cast<double>(literals.size()));
    }
    case CompareOp::kLike:
      return 0.05;  // PostgreSQL-style DEFAULT_MATCH_SEL
    case CompareOp::kBetween: {
      double lo = ValueToDouble(literals[0]);
      double hi = ValueToDouble(literals[1]);
      double f = stats.FractionBelow(hi) - stats.FractionBelow(lo);
      return std::clamp(f, 0.0005, 1.0);
    }
  }
  return 0.1;
}

std::string Predicate::ToString() const {
  std::string out = column.ToString() + " " + CompareOpName(op) + " ";
  if (op == CompareOp::kBetween) {
    out += ValueToString(literals[0]) + " and " + ValueToString(literals[1]);
  } else if (op == CompareOp::kIn) {
    std::vector<std::string> parts;
    for (const auto& l : literals) parts.push_back(ValueToString(l));
    out += "(" + Join(parts, ", ") + ")";
  } else {
    out += ValueToString(literals[0]);
  }
  return out;
}

}  // namespace qcfe
