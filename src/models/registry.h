#ifndef QCFE_MODELS_REGISTRY_H_
#define QCFE_MODELS_REGISTRY_H_

/// \file registry.h
/// String-keyed estimator registry: the extension point that lets new cost
/// estimators plug into the QCFE pipeline, the harness, and the serving API
/// without touching core code. Each estimator ships a self-registering
/// factory (see the bottom of qppnet.cc / mscn.cc / pg_cost_model.cc), so
/// model selection everywhere flows through a name like "qppnet", "mscn" or
/// "pgsql" instead of a hard-coded enum switch.

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "models/cost_model.h"
#include "util/sync.h"

namespace qcfe {

class Catalog;

/// Everything a factory may need to construct an estimator. Analytical
/// models ignore all of it; learned models pick what they need (QPPNet the
/// featurizer, MSCN the catalog and the featurizer). Pointers must outlive
/// the created model.
struct EstimatorContext {
  const Catalog* catalog = nullptr;
  const OperatorFeaturizer* featurizer = nullptr;
  uint64_t seed = 0;
};

/// Static properties of a registered estimator, consumed by the pipeline
/// and the harness instead of per-kind special cases.
struct EstimatorInfo {
  std::string name;          ///< registry key, e.g. "qppnet"
  std::string display_name;  ///< human name, e.g. "QPPNet"
  std::string qcfe_label;    ///< tag inside "QCFE(...)", e.g. "qpp"
  /// Learned models train, expose OperatorView for feature reduction, and
  /// benefit from the snapshot; analytical models (pgsql) do none of that.
  bool learned = true;
  /// True when the model requires the same feature width for every operator
  /// type (MSCN's single operator module), which forces uniform reduction
  /// masks across types.
  bool uniform_feature_width = false;
};

/// Thread-safe name -> factory map.
class EstimatorRegistry {
 public:
  using Factory =
      std::function<Result<std::unique_ptr<CostModel>>(const EstimatorContext&)>;

  /// The process-wide registry all estimators self-register into.
  static EstimatorRegistry& Global();

  /// Registers a factory; fails on empty or duplicate names.
  Status Register(EstimatorInfo info, Factory factory);

  /// Instantiates the named estimator. Unknown names produce NotFound with
  /// the list of registered names in the message.
  Result<std::unique_ptr<CostModel>> Create(const std::string& name,
                                            const EstimatorContext& context) const;

  /// Properties of the named estimator (NotFound for unknown names).
  Result<EstimatorInfo> Info(const std::string& name) const;

 private:
  struct Entry {
    EstimatorInfo info;
    Factory factory;
  };

  /// Read-mostly after static init: writes happen only through Register
  /// (static registration at startup plus the occasional test), every other
  /// call is a shared-mode lookup.
  mutable SharedMutex mu_{lock_rank::kEstimatorRegistry};
  std::map<std::string, Entry> entries_ QCFE_GUARDED_BY(mu_);
};

/// Performs registration from a static initialiser:
///
///   const EstimatorRegistration kReg{{"qppnet", "QPPNet", "qpp"},
///                                    [](const EstimatorContext& ctx) {...}};
///
/// Registration failures (duplicate names) are silently ignored — the first
/// registration wins, and tests cover the registry contents.
struct EstimatorRegistration {
  EstimatorRegistration(EstimatorInfo info, EstimatorRegistry::Factory factory);
};

}  // namespace qcfe

#endif  // QCFE_MODELS_REGISTRY_H_
