#ifndef QCFE_FEATURIZE_FEATURE_SCHEMA_H_
#define QCFE_FEATURIZE_FEATURE_SCHEMA_H_

/// \file feature_schema.h
/// Named feature dimensions. Every encoder publishes a schema so the
/// reduction experiments (paper Figure 7) can report *which* features each
/// algorithm dropped.

#include <string>
#include <vector>

namespace qcfe {

/// An ordered list of named dimensions.
class FeatureSchema {
 public:
  /// Appends a dimension and returns its index.
  size_t Add(const std::string& name);

  size_t size() const { return names_.size(); }
  const std::string& name(size_t i) const { return names_[i]; }
  const std::vector<std::string>& names() const { return names_; }

  /// Schema equality (same names in the same order).
  bool operator==(const FeatureSchema& other) const {
    return names_ == other.names_;
  }

 private:
  std::vector<std::string> names_;
};

}  // namespace qcfe

#endif  // QCFE_FEATURIZE_FEATURE_SCHEMA_H_
