#ifndef QCFE_UTIL_STRING_UTIL_H_
#define QCFE_UTIL_STRING_UTIL_H_

/// \file string_util.h
/// Small string helpers shared by the SQL tokenizer, printers and workloads.

#include <string>
#include <vector>

namespace qcfe {

/// Splits on a single-character delimiter; keeps empty fields.
std::vector<std::string> Split(const std::string& s, char delim);

/// Strips ASCII whitespace from both ends.
std::string Trim(const std::string& s);

/// ASCII lower-casing.
std::string ToLower(const std::string& s);

/// Joins with a separator.
std::string Join(const std::vector<std::string>& parts, const std::string& sep);

/// True if `s` contains `needle`.
bool Contains(const std::string& s, const std::string& needle);

/// Fixed-precision double formatting ("%.3f" style) without locale surprises.
std::string FormatDouble(double v, int precision = 3);

}  // namespace qcfe

#endif  // QCFE_UTIL_STRING_UTIL_H_
