#ifndef QCFE_ENGINE_PLAN_H_
#define QCFE_ENGINE_PLAN_H_

/// \file plan.h
/// Physical plan trees. The eight operator types match the paper's operator
/// vocabulary (Table I / Figure 7). Each node carries both planner estimates
/// and, after execution, actual cardinalities, work counts, and the simulated
/// operator latency that serves as ground truth.

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/predicate.h"
#include "engine/query.h"

namespace qcfe {

/// Physical operator type.
enum class OpType {
  kSeqScan = 0,
  kIndexScan,
  kSort,
  kAggregate,
  kMaterialize,
  kHashJoin,
  kMergeJoin,
  kNestedLoop,
};

/// Number of physical operator types.
constexpr size_t kNumOpTypes = 8;

/// Display name, e.g. "Seq Scan".
const char* OpTypeName(OpType op);

/// All operator types in enum order (for iteration in featurizers/benches).
const std::vector<OpType>& AllOpTypes();

/// Per-operator work performed during execution; the ground-truth cost
/// simulator prices these counts with environment-dependent coefficients
/// (the paper's N vector; coefficients are the C vector).
struct WorkCounts {
  double seq_pages = 0.0;     ///< sequential page reads/writes
  double rand_pages = 0.0;    ///< random page reads
  double tuples = 0.0;        ///< tuples processed by the operator
  double index_tuples = 0.0;  ///< tuples located via an index
  double op_units = 0.0;      ///< operator-specific units (comparisons, probes)
};

/// A node of a physical plan tree.
struct PlanNode {
  OpType op = OpType::kSeqScan;

  // Scan parameters.
  std::string table;
  std::string index_column;          ///< index scans: indexed column
  std::vector<Predicate> filters;    ///< applied during the scan
  /// Columns (unqualified) the scan must emit; empty = all columns.
  /// Projection pushdown keeps intermediate relations narrow.
  std::vector<std::string> projection;

  // Join parameters.
  std::optional<JoinCondition> join;

  // Sort / aggregate parameters.
  std::vector<OrderKey> sort_keys;
  std::vector<ColumnRef> group_by;
  std::vector<Aggregate> aggregates;
  bool distinct = false;

  std::vector<std::unique_ptr<PlanNode>> children;

  // ---- Planner estimates ----
  double est_rows = 0.0;
  double est_width = 0.0;        ///< output row width (bytes)
  double est_cost = 0.0;         ///< cumulative planner cost (PG-style units)
  double est_self_cost = 0.0;    ///< this operator's share of est_cost

  // ---- Execution artifacts (filled by the executor + cost simulator) ----
  double actual_rows = 0.0;
  double input_card = 0.0;   ///< n of the snapshot formulas (first input)
  double input_card2 = 0.0;  ///< n2 for nested loop (second input)
  WorkCounts work;
  double actual_ms = 0.0;    ///< simulated operator latency (ground truth)

  PlanNode() = default;

  size_t num_children() const { return children.size(); }
  PlanNode* child(size_t i) { return children[i].get(); }
  const PlanNode* child(size_t i) const { return children[i].get(); }

  /// Pre-order traversal.
  void Visit(const std::function<void(PlanNode*)>& fn);
  void VisitConst(const std::function<void(const PlanNode*)>& fn) const;

  size_t CountNodes() const;

  /// Sum of actual_ms over the subtree.
  double TotalActualMs() const;

  /// Structural identity (operator, parameters, child fingerprints) used as
  /// the execution-cache key: plans with equal fingerprints perform exactly
  /// the same work regardless of environment coefficients.
  std::string Fingerprint() const;

  /// EXPLAIN-style indented rendering.
  std::string ToString(int indent = 0) const;

  /// Deep copy, including estimates and execution artifacts.
  std::unique_ptr<PlanNode> Clone() const;
};

}  // namespace qcfe

#endif  // QCFE_ENGINE_PLAN_H_
