#ifndef QCFE_MODELS_PG_COST_MODEL_H_
#define QCFE_MODELS_PG_COST_MODEL_H_

/// \file pg_cost_model.h
/// The "PGSQL" baseline of the paper's Table IV: the optimizer's own
/// analytical cost estimate converted to milliseconds with a fixed unit
/// constant. It needs no training, is environment-oblivious beyond the
/// planner cost knobs, and — as in the paper — its q-error is orders of
/// magnitude worse than any learned estimator while remaining loosely
/// correlated with true latency.

#include "models/cost_model.h"

namespace qcfe {

/// Analytical baseline: predicted_ms = root plan cost * ms_per_cost_unit.
class PgCostModel : public CostModel {
 public:
  /// The default treats optimizer cost units as milliseconds directly —
  /// the naive reading practitioners use, and the reason the paper's PGSQL
  /// rows show q-errors in the hundreds-to-millions: planner units are not
  /// calibrated to wall-clock at all.
  explicit PgCostModel(double ms_per_cost_unit = 1.0)
      : ms_per_cost_unit_(ms_per_cost_unit) {}

  std::string name() const override { return "PGSQL"; }

  Status Train(const std::vector<PlanSample>& train, const TrainConfig& config,
               TrainStats* stats) override;

 protected:
  /// The cost formula per request; it cannot fail.
  void PredictShard(const std::vector<PlanSample>& requests, size_t begin,
                    size_t end,
                    std::vector<BatchPrediction>* out) const override;

 private:
  double ms_per_cost_unit_;
};

}  // namespace qcfe

#endif  // QCFE_MODELS_PG_COST_MODEL_H_
