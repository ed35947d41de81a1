#include "featurize/feature_schema.h"

namespace qcfe {

size_t FeatureSchema::Add(const std::string& name) {
  names_.push_back(name);
  return names_.size() - 1;
}

}  // namespace qcfe
