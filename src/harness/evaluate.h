#ifndef QCFE_HARNESS_EVALUATE_H_
#define QCFE_HARNESS_EVALUATE_H_

/// \file evaluate.h
/// Model evaluation + the Table IV "cell" runner shared by several benches:
/// one (benchmark, model, scale) cell = fit a Pipeline for the named
/// estimator, evaluate pearson / mean q-error / quantiles, and time
/// training and (batched) inference.

#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "harness/context.h"
#include "util/stats.h"

namespace qcfe {

/// Evaluation outcome on a test set.
struct EvalResult {
  MetricSummary summary;
  double inference_seconds = 0.0;
};

/// Predicts every sample in one PredictBatchEach call and summarises;
/// times that call. A sample the model fails to predict scores 0. Serves
/// across the model's attached thread pool, if any; the pool changes only
/// inference_seconds, never a metric.
EvalResult EvaluateModel(const CostModel& model,
                         const std::vector<PlanSample>& test);

/// Same, through a pipeline facade (serves across the pipeline's pool).
EvalResult EvaluateModel(const Pipeline& pipeline,
                         const std::vector<PlanSample>& test);

/// Which estimator variant a Table IV row uses. `estimator` is an
/// EstimatorRegistry name; rows for estimators that are not registered fail
/// at RunCell time with NotFound.
struct CellConfig {
  std::string display_name;  ///< "PGSQL", "MSCN", "QCFE(qpp)", ...
  std::string estimator;     ///< registry name: "pgsql", "mscn", "qppnet"
  bool qcfe = false;         ///< snapshot + reduction on
  int epochs = 15;
  int eval_every = 0;  ///< forward to TrainConfig for convergence traces
};

/// One trained+evaluated cell.
struct CellResult {
  std::string model_name;
  EvalResult eval;
  double train_seconds = 0.0;
  /// The fitted pipeline; kept alive so benches can inspect reduction
  /// results and reuse models.
  std::unique_ptr<Pipeline> pipeline;
  TrainStats train_stats;
};

/// The five Table IV rows for a benchmark.
std::vector<CellConfig> TableIvModels(const HarnessOptions& options);

/// Trains and evaluates one cell on the given split.
Result<CellResult> RunCell(BenchmarkContext* ctx, const CellConfig& cell,
                           const std::vector<PlanSample>& train,
                           const std::vector<PlanSample>& test);

}  // namespace qcfe

#endif  // QCFE_HARNESS_EVALUATE_H_
