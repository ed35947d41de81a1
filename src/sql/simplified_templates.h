#ifndef QCFE_SQL_SIMPLIFIED_TEMPLATES_H_
#define QCFE_SQL_SIMPLIFIED_TEMPLATES_H_

/// \file simplified_templates.h
/// Paper Algorithm 1: generate simplified query templates.
///
/// Phase 1 parses the original workload templates and collects the
/// operator -> (table, column) information using the keyword mapping of
/// paper Table II (filter keywords -> scans, ORDER BY -> sort, GROUP BY ->
/// aggregate, equi-joins -> join operators).
/// Phase 2 instantiates the per-operator parent templates with that info.
/// Phase 3 fills the templates `scale` times with values from the data
/// abstract and random comparison keywords, yielding executable queries.
///
/// The output queries exercise the same operator/table/column combinations
/// as the original workload but run much faster (single scan / single join),
/// which is what makes FST snapshots cheap to collect (paper Table V).

#include <string>
#include <vector>

#include "engine/catalog.h"
#include "engine/query.h"
#include "sql/data_abstract.h"
#include "sql/template.h"
#include "util/status.h"

namespace qcfe {

class Rng;

/// Operator family a simplified template reproduces (Table II rows).
enum class SimplifiedOpClass {
  kScan,       ///< Seq/Index Scan
  kSort,       ///< Sort
  kAggregate,  ///< Aggregate
  kJoin,       ///< Merge/Hash Join, Nested Loop
};

/// One simplified template (phase 2 output).
struct SimplifiedTemplate {
  SimplifiedOpClass op_class = SimplifiedOpClass::kScan;
  // Scan/sort/aggregate target.
  std::string table;
  std::string column;
  // Join targets.
  ColumnRef left;
  ColumnRef right;
  /// Join variant with a trailing ORDER BY (second parent template of
  /// Table II's join row).
  bool with_order_by = false;
};

/// Algorithm 1 implementation.
class SimplifiedTemplateGenerator {
 public:
  explicit SimplifiedTemplateGenerator(const Catalog* catalog)
      : catalog_(catalog) {}

  /// Phases 1+2: original templates -> deduplicated simplified templates.
  Result<std::vector<SimplifiedTemplate>> Generate(
      const std::vector<QueryTemplate>& original) const;

  /// Phase 3: fills each template `scale` times. Numeric columns draw a
  /// random comparison keyword from {<, <=, =, >=, >}; string columns use
  /// {=, like}. Returns scale * templates.size() executable queries.
  Result<std::vector<QuerySpec>> Fill(
      const std::vector<SimplifiedTemplate>& templates,
      const DataAbstract& abstract, int scale, Rng* rng) const;

 private:
  const Catalog* catalog_;
};

}  // namespace qcfe

#endif  // QCFE_SQL_SIMPLIFIED_TEMPLATES_H_
