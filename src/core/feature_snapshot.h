#ifndef QCFE_CORE_FEATURE_SNAPSHOT_H_
#define QCFE_CORE_FEATURE_SNAPSHOT_H_

/// \file feature_snapshot.h
/// The feature snapshot SF (paper Section III): per-operator cost
/// coefficients that summarise the influence of the "ignored variables"
/// (knobs, hardware, storage, OS) on query cost. Coefficients are estimated
/// by least squares against the logical cost formulas of paper Table I:
///
///   Seq Scan / Materialize / Aggregation /
///   Index Scan / Merge Join / Hash Join :  F = c0*n + c1
///   Sort                                :  F = c0*n*log(n) + c1
///   Nested Loop                         :  F = c0*n1*n2 + c1*n1 + c2*n2 + c3
///
/// One snapshot is fitted per database environment from labeled operator
/// observations (per-operator latencies of executed queries).

#include <array>
#include <map>
#include <vector>

#include "engine/plan.h"
#include "util/check.h"
#include "util/status.h"
#include "workload/collector.h"

namespace qcfe {

class ByteReader;
class ByteWriter;

/// Width of the padded per-operator coefficient vector (Nested Loop needs 4;
/// other operators zero-pad).
constexpr size_t kSnapshotWidth = 4;

/// Fitted coefficients of one operator type.
struct OperatorSnapshot {
  std::array<double, kSnapshotWidth> coeffs = {0.0, 0.0, 0.0, 0.0};
  size_t num_observations = 0;
};

/// One labeled operator observation (a node of an executed plan).
struct OperatorObservation {
  OpType op = OpType::kSeqScan;
  double n = 0.0;    ///< input cardinality (the formula's n / n1)
  double n2 = 0.0;   ///< second input (nested loop only)
  double ms = 0.0;   ///< observed operator latency
  std::string table; ///< scanned table (empty for non-scan operators)
};

/// Snapshot granularity (the paper's Section III discussion: operator-level
/// snapshots can be refined to operator-table level at higher collection
/// cost).
enum class SnapshotGranularity {
  kOperator,
  kOperatorTable,
};

/// A per-environment feature snapshot.
class FeatureSnapshot {
 public:
  /// Design-matrix row of the Table I formula for an operator type.
  /// Returns the number of active columns (2 or 4); inactive columns are 0.
  static size_t DesignRow(OpType op, double n, double n2,
                          std::array<double, kSnapshotWidth>* row);

  /// Fits one snapshot from operator observations via non-negative least
  /// squares (coefficients are physical times per unit of work).
  /// Operator types without observations keep zero coefficients.
  /// kOperatorTable additionally fits per-(operator, table) coefficients for
  /// scan operators with enough observations; lookups fall back to the
  /// operator level.
  static Result<FeatureSnapshot> Fit(
      const std::vector<OperatorObservation>& observations,
      SnapshotGranularity granularity = SnapshotGranularity::kOperator);

  /// Extracts observations from a labeled query set (every plan node).
  static std::vector<OperatorObservation> ObservationsFrom(
      const LabeledQuerySet& set);

  const OperatorSnapshot& Get(OpType op) const {
    return per_op_[static_cast<size_t>(op)];
  }

  /// Fine-grained lookup: the (op, table) coefficients when fitted, else the
  /// operator-level coefficients.
  const OperatorSnapshot& GetFine(OpType op, const std::string& table) const;

  /// Predicted latency of one operator under this snapshot (for tests and
  /// snapshot-quality diagnostics).
  double PredictMs(OpType op, double n, double n2) const;

  /// The granularity this snapshot was fitted at (its fit fingerprint; the
  /// SnapshotStore enforces that one store never mixes granularities).
  SnapshotGranularity granularity() const { return granularity_; }

  /// Binary form for model artifacts (core/artifact.h): granularity,
  /// per-operator coefficients, and the fine (op, table) map.
  void SaveBinary(ByteWriter* w) const;
  /// Decodes a snapshot written by SaveBinary. Hostile bytes fail with
  /// kDataLoss (including an out-of-range granularity byte) — never the
  /// QCFE_CHECK abort paths of the fitting API.
  static Status LoadBinary(ByteReader* r, FeatureSnapshot* out);

 private:
  std::array<OperatorSnapshot, kNumOpTypes> per_op_;
  /// Keyed "op_index|table"; populated only at kOperatorTable granularity.
  std::map<std::string, OperatorSnapshot> fine_;
  SnapshotGranularity granularity_ = SnapshotGranularity::kOperator;
};

/// Snapshots for all environments, keyed by environment id.
class SnapshotStore {
 public:
  /// Fingerprint/id consistency contract: every snapshot in one store must
  /// be fitted at the same granularity. The snapshot featurizer assumes a
  /// uniform store — a kOperator snapshot answering a kOperatorTable lookup
  /// would silently fall back to coarse coefficients for some environments
  /// and not others, which is exactly the kind of quiet degradation this
  /// layer exists to make loud.
  void Put(int env_id, FeatureSnapshot snapshot) {
    QCFE_CHECK(snapshots_.empty() ||
                   snapshot.granularity() ==
                       snapshots_.begin()->second.granularity(),
               "SnapshotStore must not mix snapshot granularities");
    snapshots_[env_id] = std::move(snapshot);
  }
  /// nullptr when the environment is unknown.
  const FeatureSnapshot* Get(int env_id) const {
    auto it = snapshots_.find(env_id);
    return it == snapshots_.end() ? nullptr : &it->second;
  }
  bool Contains(int env_id) const {
    return snapshots_.find(env_id) != snapshots_.end();
  }
  size_t size() const { return snapshots_.size(); }

  /// Environment ids present, in ascending order (fingerprint material for
  /// artifacts: a loaded store must cover exactly the serving env set).
  std::vector<int> EnvIds() const;

  /// Binary form for model artifacts (core/artifact.h).
  void SaveBinary(ByteWriter* w) const;
  /// Decodes a store written by SaveBinary. Mixed granularities — which a
  /// legitimate save can never produce — fail with kDataLoss *before* any
  /// Put, so corrupted bytes can not trip the uniformity QCFE_CHECK.
  static Status LoadBinary(ByteReader* r, SnapshotStore* out);

 private:
  std::map<int, FeatureSnapshot> snapshots_;
};

}  // namespace qcfe

#endif  // QCFE_CORE_FEATURE_SNAPSHOT_H_
