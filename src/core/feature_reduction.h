#ifndef QCFE_CORE_FEATURE_REDUCTION_H_
#define QCFE_CORE_FEATURE_REDUCTION_H_

/// \file feature_reduction.h
/// Feature reduction for query cost estimators (paper Section IV). Three
/// algorithms over labeled operator sets D = {(x_i, y_i)} and a trained
/// model M (accessed through CostModel::OperatorView):
///
///  * Greedy (paper Algorithm 2): iteratively drop the single feature whose
///    removal (mean-masking) minimises q-error, until no drop helps.
///    O(n^2) model evaluations; blind to feature co-relationships.
///  * Gradient (GD): importance_k = E|dM/dx_k| via backprop input gradients.
///    Suffers from discrete one-hot inputs and dead-ReLU zero gradients.
///  * Difference propagation (paper Algorithm 3 / Equation 1): importance_k
///    = E_{x_i in D, x_j in R} |ΔM / Δx_k| computed from finite activation
///    differences against a sampled reference set R — defined on discrete
///    dims and immune to gradient vanishing. Never-varying dims score
///    exactly zero.

#include <array>
#include <map>
#include <vector>

#include "featurize/featurizer.h"
#include "models/cost_model.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace qcfe {

class Rng;

/// Which reduction algorithm to run.
enum class ReductionAlgorithm {
  kGreedy,
  kGradient,
  kDiffProp,
};

/// Tuning knobs of the reduction pass.
struct ReductionConfig {
  ReductionAlgorithm algorithm = ReductionAlgorithm::kDiffProp;
  /// Size of the reference sample R (paper Table VI sweeps this).
  size_t num_references = 64;
  /// Difference propagation keeps dims with score > eps_abs (the paper's
  /// "score > 0" with a float-noise guard): never-varying dims score exactly
  /// zero and are dropped.
  double eps_abs = 1e-9;
  /// Gradient scores are never exactly zero (dead dims still carry random
  /// initial weights), so GD keeps dims with
  /// score > max(eps_abs, gd_rel_threshold * median_score) — and therefore
  /// draws the keep/drop line in the wrong place, which is the paper's
  /// criticism of gradient-based reduction.
  double gd_rel_threshold = 2.0;
  /// Row cap for the expensive greedy evaluations.
  size_t greedy_max_rows = 400;
  /// Maximum operator rows gathered per type (subsampled beyond this).
  size_t max_rows_per_op = 2000;
  uint64_t seed = 17;
};

/// Outcome for one operator type.
struct OpReductionResult {
  std::vector<size_t> kept;     ///< surviving feature indices
  std::vector<double> scores;   ///< per-dim importance (empty for greedy)
  size_t original_dim = 0;
  size_t dropped = 0;
};

/// Outcome of a whole reduction pass.
struct ReductionResult {
  std::map<OpType, OpReductionResult> per_op;
  double runtime_seconds = 0.0;

  /// Fraction of feature dims dropped across all operator types that had
  /// observations.
  double ReductionRatio() const;

  /// Kept-column map consumable by MaskedFeaturizer. When `uniform` is true
  /// (MSCN's single operator module), the per-type kept sets are unioned
  /// into one shared mask.
  std::map<OpType, std::vector<size_t>> KeptMap(bool uniform) const;
};

/// Runs feature reduction against a trained model.
///
/// `samples` supplies the labeled operator set D (every plan node becomes an
/// observation, encoded with the model's featurizer); the model supplies
/// per-operator views. Operator types with no observations are left intact.
///
/// With a `pool`, the expensive inner loops — operator-row gathering, the
/// greedy candidate sweep and the difference-propagation reference sweep —
/// run across workers. Every parallel loop reduces its partial results in a
/// fixed index order and each operator type draws from its own Rng::Split
/// stream, so scores, kept sets and runtimes-excluded outputs are
/// bit-identical at any thread count.
Result<ReductionResult> ReduceFeatures(const CostModel& model,
                                       const std::vector<PlanSample>& samples,
                                       const ReductionConfig& config,
                                       ThreadPool* pool = nullptr);

/// Dynamic-workload recall (the paper's Section IV discussion and future
/// work): a feature that was useless under the old workload may have
/// "inherent value" that re-emerges when the workload drifts — e.g. index
/// one-hots are dead under a write-only load but become informative once
/// reads appear. RecallFeatures re-admits previously dropped dimensions that
/// have started varying in a fresh workload sample.
struct RecallResult {
  /// Dims re-admitted per operator type.
  std::map<OpType, std::vector<size_t>> recalled;
  /// Updated kept map (old kept ∪ recalled), consumable by MaskedFeaturizer.
  std::map<OpType, std::vector<size_t>> new_kept;
  size_t total_recalled = 0;
};

/// `full_featurizer` must be the unmasked featurizer the original reduction
/// ran on; `previous` is that reduction's outcome; `new_samples` is a
/// labeled sample of the drifted workload.
Result<RecallResult> RecallFeatures(const OperatorFeaturizer& full_featurizer,
                                    const ReductionResult& previous,
                                    const std::vector<PlanSample>& new_samples,
                                    double variation_eps = 1e-12);

}  // namespace qcfe

#endif  // QCFE_CORE_FEATURE_REDUCTION_H_
