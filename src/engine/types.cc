#include "engine/types.h"

#include <cmath>

#include "util/string_util.h"

namespace qcfe {

size_t DataTypeWidth(DataType t) {
  switch (t) {
    case DataType::kInt64:
      return 8;
    case DataType::kFloat64:
      return 8;
    case DataType::kString:
      return 24;  // PostgreSQL-style average attribute width assumption
  }
  return 8;
}

namespace {
bool IsNumeric(const Value& v) { return v.index() != 2; }
}  // namespace

int CompareValues(const Value& a, const Value& b) {
  if (IsNumeric(a) && IsNumeric(b)) {
    double x = ValueToDouble(a), y = ValueToDouble(b);
    if (x < y) return -1;
    if (x > y) return 1;
    return 0;
  }
  if (IsNumeric(a) != IsNumeric(b)) {
    // Mixed comparison: numbers order before strings, deterministically.
    return IsNumeric(a) ? -1 : 1;
  }
  const std::string& x = std::get<std::string>(a);
  const std::string& y = std::get<std::string>(b);
  if (x < y) return -1;
  if (x > y) return 1;
  return 0;
}

double ValueToDouble(const Value& v) {
  switch (v.index()) {
    case 0:
      return static_cast<double>(std::get<int64_t>(v));
    case 1:
      return std::get<double>(v);
    default:
      return StringToDouble(std::get<std::string>(v));
  }
}

double StringToDouble(std::string_view s) {
  return static_cast<double>(HashString(s) % (1ULL << 52));
}

std::string ValueToString(const Value& v) {
  switch (v.index()) {
    case 0:
      return std::to_string(std::get<int64_t>(v));
    case 1:
      return FormatDouble(std::get<double>(v), 4);
    default:
      return "'" + std::get<std::string>(v) + "'";
  }
}

namespace {
uint64_t Fnv1a(const void* data, size_t n, uint64_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint64_t h = 1469598103934665603ULL ^ seed;
  for (size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
  return h;
}
}  // namespace

uint64_t HashInt64(int64_t x) { return Fnv1a(&x, sizeof(x), 1); }

uint64_t HashDouble(double d) {
  // Hash integral doubles identically to the int64 of the same value so
  // cross-type equi-joins hash consistently.
  if (std::floor(d) == d && std::fabs(d) < 9e15) {
    return HashInt64(static_cast<int64_t>(d));
  }
  return Fnv1a(&d, sizeof(d), 2);
}

uint64_t HashString(std::string_view s) { return Fnv1a(s.data(), s.size(), 3); }

uint64_t HashValue(const Value& v) {
  switch (v.index()) {
    case 0:
      return HashInt64(std::get<int64_t>(v));
    case 1:
      return HashDouble(std::get<double>(v));
    default:
      return HashString(std::get<std::string>(v));
  }
}

DataType ValueType(const Value& v) {
  switch (v.index()) {
    case 0:
      return DataType::kInt64;
    case 1:
      return DataType::kFloat64;
    default:
      return DataType::kString;
  }
}

}  // namespace qcfe
