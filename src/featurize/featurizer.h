#ifndef QCFE_FEATURIZE_FEATURIZER_H_
#define QCFE_FEATURIZE_FEATURIZER_H_

/// \file featurizer.h
/// The featurizer abstraction that decouples estimators from feature
/// engineering. Models (QPPNet / MSCN) only see this interface; QCFE plugs
/// in by wrapping a base featurizer with snapshot augmentation (src/core)
/// and/or per-operator-type masks produced by feature reduction.
///
/// Featurizers are env-aware: Encode receives the environment id of the
/// query because the feature snapshot differs per environment. The base
/// featurizer ignores it (that is exactly the paper's "general FE" gap).

#include <array>
#include <map>
#include <memory>
#include <vector>

#include "engine/plan.h"
#include "featurize/feature_schema.h"
#include "featurize/operator_encoder.h"
#include "util/status.h"

namespace qcfe {

/// Per-operator feature encoder with per-operator-type widths.
class OperatorFeaturizer {
 public:
  virtual ~OperatorFeaturizer() = default;

  /// Feature width for operators of this type.
  virtual size_t dim(OpType op) const = 0;

  /// Dimension names for operators of this type.
  virtual const FeatureSchema& schema(OpType op) const = 0;

  /// Encodes one operator. `depth` is the node's depth in its plan (root 0);
  /// `env_id` identifies the environment the query ran/will run under.
  virtual std::vector<double> Encode(const PlanNode& node, size_t depth,
                                     int env_id) const = 0;
};

/// Plain QPPNet-style encoding (no snapshot, no mask): same layout for all
/// operator types, env_id ignored.
class BaseFeaturizer : public OperatorFeaturizer {
 public:
  explicit BaseFeaturizer(const Catalog* catalog,
                          EncoderOptions options = EncoderOptions())
      : encoder_(catalog, options) {}

  size_t dim(OpType op) const override;
  const FeatureSchema& schema(OpType op) const override;
  std::vector<double> Encode(const PlanNode& node, size_t depth,
                             int env_id) const override;

  const OperatorEncoder& encoder() const { return encoder_; }

 private:
  OperatorEncoder encoder_;
};

/// Applies per-operator-type column masks on top of another featurizer:
/// the physical form of feature reduction (paper Section IV). Kept columns
/// are indices into the inner featurizer's dimensions for that type.
class MaskedFeaturizer : public OperatorFeaturizer {
 public:
  /// `inner` must outlive this featurizer. Types missing from `kept` keep
  /// all inner dimensions.
  MaskedFeaturizer(const OperatorFeaturizer* inner,
                   std::map<OpType, std::vector<size_t>> kept);

  size_t dim(OpType op) const override;
  const FeatureSchema& schema(OpType op) const override;
  std::vector<double> Encode(const PlanNode& node, size_t depth,
                             int env_id) const override;

 private:
  const OperatorFeaturizer* inner_;
  std::array<std::vector<size_t>, kNumOpTypes> kept_;
  std::array<FeatureSchema, kNumOpTypes> schemas_;
};

}  // namespace qcfe

#endif  // QCFE_FEATURIZE_FEATURIZER_H_
