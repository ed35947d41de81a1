#ifndef QCFE_ENGINE_EXECUTOR_H_
#define QCFE_ENGINE_EXECUTOR_H_

/// \file executor.h
/// Row-id executor. Runs a physical plan over real data, producing correct
/// results *and* the per-operator work counts (pages, tuples, comparisons)
/// that the cost simulator prices into ground-truth latencies. Work counts
/// reflect what the operator logically does (e.g. a Nested Loop is charged
/// n1*n2 units even though equi-joins are evaluated via hashing internally
/// for speed).
///
/// Intermediate results never copy values. A RowIdRelation names its
/// sources (base tables, or the small table an Aggregate builds for its
/// groups) and holds one uint32_t row id per source per row: scans emit the
/// ids of the rows passing their filters, joins concatenate id tuples and
/// sorts permute them. Operators read the typed source columns only where
/// they need a value (filters, join and group keys, sort keys, aggregate
/// arguments). Value rows are built once, at the root, by Materialize — and
/// only for callers that want the result itself; collection needs just the
/// row count.

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "engine/catalog.h"
#include "engine/knobs.h"
#include "engine/plan.h"
#include "util/status.h"

namespace qcfe {

/// A materialized result with a qualified-name schema.
struct Relation {
  Schema schema;
  std::vector<std::vector<Value>> rows;

  size_t NumRows() const { return rows.size(); }
};

/// An intermediate result as row ids into its source tables.
struct RowIdRelation {
  /// Where a schema column's values live.
  struct SourceColumn {
    uint32_t source = 0;  ///< index into `sources`
    uint32_t column = 0;  ///< column index in that source table
  };

  Schema schema;
  std::vector<SourceColumn> columns;  ///< one per schema column
  std::vector<const Table*> sources;
  /// Keeps operator-built sources (Aggregate groups) alive; base tables
  /// belong to the catalog.
  std::vector<std::shared_ptr<const Table>> owned;
  /// Row-major: row r's id into source s is ids[r * sources.size() + s].
  std::vector<uint32_t> ids;

  size_t NumRows() const {
    return sources.empty() ? 0 : ids.size() / sources.size();
  }
  /// Bytes under the width accounting used for spill decisions.
  double SizeBytes() const {
    return static_cast<double>(NumRows()) *
           static_cast<double>(schema.RowWidth());
  }
  /// The first `max_rows` rows as values.
  Relation Materialize(
      size_t max_rows = std::numeric_limits<size_t>::max()) const;
};

/// Executes plans against a catalog under a knob configuration (work_mem
/// controls spill behaviour, which feeds back into work counts).
///
/// Thread-safety: an Executor holds no mutable state — `catalog_` is read
/// through const paths only and `knobs_` is an immutable by-value copy — so
/// one instance may execute distinct plans from several threads, and the
/// parallel collection layer cheaply builds one Executor per worker/call.
/// The catalog must outlive the executor and every relation it returns, and
/// must not be mutated (no AddTable/AnalyzeAll) while executions are in
/// flight. A base table with more rows than a uint32_t row id can index
/// fails a QCFE_CHECK.
class Executor {
 public:
  /// `catalog` must be non-null (checked: construction aborts on nullptr,
  /// since a null catalog is a caller lifetime bug, not a runtime error).
  Executor(const Catalog* catalog, const Knobs& knobs);

  /// Executes the subtree rooted at `node`, filling actual_rows, input_card
  /// and work on every node. Returns the output as row ids.
  Result<RowIdRelation> Execute(PlanNode* node) const;

 private:
  Result<RowIdRelation> ExecScan(PlanNode* node) const;
  Result<RowIdRelation> ExecSort(PlanNode* node) const;
  Result<RowIdRelation> ExecAggregate(PlanNode* node) const;
  Result<RowIdRelation> ExecMaterialize(PlanNode* node) const;
  Result<RowIdRelation> ExecJoin(PlanNode* node) const;

  /// Shared by hash/merge/NL joins: locates key columns, joins, concatenates.
  Result<RowIdRelation> EquiJoin(PlanNode* node, const RowIdRelation& left,
                                 const RowIdRelation& right) const;

  const Catalog* catalog_;
  Knobs knobs_;
};

}  // namespace qcfe

#endif  // QCFE_ENGINE_EXECUTOR_H_
