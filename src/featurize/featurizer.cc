#include "featurize/featurizer.h"

namespace qcfe {

size_t BaseFeaturizer::dim(OpType) const { return encoder_.dim(); }

const FeatureSchema& BaseFeaturizer::schema(OpType) const {
  return encoder_.schema();
}

std::vector<double> BaseFeaturizer::Encode(const PlanNode& node, size_t depth,
                                           int /*env_id*/) const {
  return encoder_.Encode(node, depth);
}

MaskedFeaturizer::MaskedFeaturizer(const OperatorFeaturizer* inner,
                                   std::map<OpType, std::vector<size_t>> kept)
    : inner_(inner) {
  for (OpType op : AllOpTypes()) {
    size_t oi = static_cast<size_t>(op);
    auto it = kept.find(op);
    if (it != kept.end()) {
      kept_[oi] = it->second;
    } else {
      kept_[oi].resize(inner_->dim(op));
      for (size_t i = 0; i < kept_[oi].size(); ++i) kept_[oi][i] = i;
    }
    const FeatureSchema& inner_schema = inner_->schema(op);
    for (size_t c : kept_[oi]) schemas_[oi].Add(inner_schema.name(c));
  }
}

size_t MaskedFeaturizer::dim(OpType op) const {
  return kept_[static_cast<size_t>(op)].size();
}

const FeatureSchema& MaskedFeaturizer::schema(OpType op) const {
  return schemas_[static_cast<size_t>(op)];
}

std::vector<double> MaskedFeaturizer::Encode(const PlanNode& node,
                                             size_t depth, int env_id) const {
  std::vector<double> full = inner_->Encode(node, depth, env_id);
  const std::vector<size_t>& keep = kept_[static_cast<size_t>(node.op)];
  std::vector<double> out(keep.size());
  for (size_t i = 0; i < keep.size(); ++i) out[i] = full[keep[i]];
  return out;
}

}  // namespace qcfe
