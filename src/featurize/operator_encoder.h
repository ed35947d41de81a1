#ifndef QCFE_FEATURIZE_OPERATOR_ENCODER_H_
#define QCFE_FEATURIZE_OPERATOR_ENCODER_H_

/// \file operator_encoder.h
/// QPPNet-style operator encoding: one-hot blocks for operator type, table,
/// index and filter columns, predicate-keyword counts, numeric planner
/// estimates, and a fixed block of reserved padding dimensions (mirroring
/// the fixed-width vectors of the reference implementations — these padding
/// dims plus unused one-hot slots are exactly what feature reduction should
/// discover and drop).
///
/// Only *plan-time* information is encoded (optimizer estimates, never
/// actual rows/latencies), so features are available before execution.

#include <map>
#include <string>
#include <vector>

#include "engine/catalog.h"
#include "engine/plan.h"
#include "featurize/feature_schema.h"

namespace qcfe {

/// Block sizes of the encoding layout.
struct EncoderOptions {
  size_t max_tables = 24;   ///< table one-hot slots (pad past real tables)
  size_t max_indexes = 16;  ///< index one-hot slots
  size_t max_columns = 48;  ///< filter-column one-hot slots
  size_t padding = 8;       ///< reserved always-zero dims
};

/// Encodes one plan operator into a fixed-width vector. The layout is shared
/// by all operator types (per-type irrelevant blocks stay zero).
class OperatorEncoder {
 public:
  /// The catalog (analyzed) provides the table/index/column vocabularies;
  /// it must outlive the encoder.
  explicit OperatorEncoder(const Catalog* catalog,
                           EncoderOptions options = EncoderOptions());

  const FeatureSchema& schema() const { return schema_; }
  size_t dim() const { return schema_.size(); }

  /// Encodes `node` at tree depth `depth` (root = 0).
  std::vector<double> Encode(const PlanNode& node, size_t depth) const;

 private:
  const Catalog* catalog_;
  EncoderOptions options_;
  FeatureSchema schema_;
  std::map<std::string, size_t> table_slots_;
  std::map<std::string, size_t> index_slots_;   // "table.column" of indexes
  std::map<std::string, size_t> column_slots_;  // "table.column"

  // Block offsets within the feature vector.
  size_t off_op_ = 0;
  size_t off_table_ = 0;
  size_t off_index_ = 0;
  size_t off_column_ = 0;
  size_t off_predop_ = 0;
  size_t off_jointable_ = 0;
  size_t off_numeric_ = 0;
  size_t off_padding_ = 0;
};

}  // namespace qcfe

#endif  // QCFE_FEATURIZE_OPERATOR_ENCODER_H_
