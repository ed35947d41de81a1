#ifndef QCFE_ENGINE_TYPES_H_
#define QCFE_ENGINE_TYPES_H_

/// \file types.h
/// Value model of the mini relational engine (the PostgreSQL substitute).
/// Three physical types are enough for all three benchmark schemas: 64-bit
/// integers, doubles and strings.

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

namespace qcfe {

/// Physical column type.
enum class DataType {
  kInt64,
  kFloat64,
  kString,
};

/// Runtime value; the variant order must match DataType.
using Value = std::variant<int64_t, double, std::string>;

/// Width in bytes used for page accounting (strings use a fixed average
/// payload like PostgreSQL's attribute width estimate).
size_t DataTypeWidth(DataType t);

/// Three-way comparison: <0, 0, >0. Numeric types compare cross-type
/// (int vs double); strings compare lexicographically. Comparing a string
/// with a number orders the number first (deterministic, never throws).
int CompareValues(const Value& a, const Value& b);

/// Numeric view of a value: ints/doubles convert, strings hash to a stable
/// pseudo-numeric (used only for histogram bucketing of string columns).
double ValueToDouble(const Value& v);

/// Renders a value for plan/debug output; strings are single-quoted.
std::string ValueToString(const Value& v);

/// Stable 64-bit hash (FNV-1a over the canonical byte form). Used by hash
/// join/aggregation and by plan fingerprinting.
uint64_t HashValue(const Value& v);

/// HashValue of a value of each physical type, for callers that read typed
/// columns without building a Value. HashDouble of an integral double equals
/// HashInt64 of the same integer.
uint64_t HashInt64(int64_t x);
uint64_t HashDouble(double d);
uint64_t HashString(std::string_view s);

/// ValueToDouble of a string value.
double StringToDouble(std::string_view s);

/// Type of a runtime value.
DataType ValueType(const Value& v);

}  // namespace qcfe

#endif  // QCFE_ENGINE_TYPES_H_
