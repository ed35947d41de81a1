#include "models/pg_cost_model.h"

#include "models/registry.h"

namespace qcfe {

Status PgCostModel::Train(const std::vector<PlanSample>& /*train*/,
                          const TrainConfig& /*config*/, TrainStats* stats) {
  if (stats != nullptr) {
    stats->train_seconds = 0.0;  // analytical model: nothing to train
    stats->loss_curve.clear();
    stats->eval_curve.clear();
  }
  return Status::OK();
}

void PgCostModel::PredictShard(const std::vector<PlanSample>& requests,
                               size_t begin, size_t end,
                               std::vector<BatchPrediction>* out) const {
  for (size_t i = begin; i < end; ++i) {
    (*out)[i].ms = requests[i].plan->est_cost * ms_per_cost_unit_;
  }
}

namespace {
const EstimatorRegistration kPgsqlRegistration{
    {"pgsql", "PGSQL", "pgsql", /*learned=*/false,
     /*uniform_feature_width=*/false},
    [](const EstimatorContext& /*context*/)
        -> Result<std::unique_ptr<CostModel>> {
      return std::unique_ptr<CostModel>(std::make_unique<PgCostModel>());
    }};
}  // namespace

}  // namespace qcfe
