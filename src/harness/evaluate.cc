#include "harness/evaluate.h"

namespace qcfe {

namespace {

EvalResult EvaluateWithPool(const CostModel& model,
                            const std::vector<PlanSample>& test,
                            ThreadPool* pool) {
  EvalResult result;
  std::vector<double> actual;
  actual.reserve(test.size());
  for (const auto& s : test) actual.push_back(s.label_ms);

  WallTimer timer;
  std::vector<CostModel::BatchPrediction> each =
      model.PredictBatchEach(test, pool);
  result.inference_seconds = timer.Seconds();
  // A sample the model cannot predict (an untrained model, say) scores 0.
  std::vector<double> predicted;
  predicted.reserve(each.size());
  for (const CostModel::BatchPrediction& p : each) {
    predicted.push_back(p.status.ok() ? p.ms : 0.0);
  }
  result.summary = Summarize(actual, predicted);
  return result;
}

}  // namespace

EvalResult EvaluateModel(const CostModel& model,
                         const std::vector<PlanSample>& test) {
  return EvaluateWithPool(model, test, model.thread_pool());
}

EvalResult EvaluateModel(const Pipeline& pipeline,
                         const std::vector<PlanSample>& test) {
  return EvaluateWithPool(pipeline.model(), test, pipeline.thread_pool());
}

std::vector<CellConfig> TableIvModels(const HarnessOptions& options) {
  std::vector<CellConfig> cells;
  cells.push_back({"PGSQL", "pgsql", false, 0, 0});
  cells.push_back({"QCFE(mscn)", "mscn", true, options.mscn_epochs, 0});
  cells.push_back({"QCFE(qpp)", "qppnet", true, options.qpp_epochs, 0});
  cells.push_back({"MSCN", "mscn", false, options.mscn_epochs, 0});
  cells.push_back({"QPPNet", "qppnet", false, options.qpp_epochs, 0});
  return cells;
}

Result<CellResult> RunCell(BenchmarkContext* ctx, const CellConfig& cell,
                           const std::vector<PlanSample>& train,
                           const std::vector<PlanSample>& test) {
  CellResult result;
  result.model_name = cell.display_name;

  PipelineConfig cfg;
  cfg.estimator = cell.estimator;
  cfg.use_snapshot = cell.qcfe;
  cfg.use_reduction = cell.qcfe;
  cfg.snapshot_from_templates = true;  // FST: the paper's efficient default
  cfg.snapshot_scale = 2;
  cfg.pre_reduction_epochs = std::max(8, cell.epochs / 2);
  cfg.train.epochs = cell.epochs;
  cfg.train.eval_every = cell.eval_every;
  if (cell.eval_every > 0) cfg.train.eval_set = test;
  // Seed layout matches the pre-registry enum encoding (qppnet 0, mscn 1)
  // so cells reproduce the same models as earlier revisions.
  uint64_t kind_offset = cell.estimator == "mscn" ? 7 : 0;
  cfg.seed = ctx->options.seed * 97 + kind_offset + (cell.qcfe ? 3 : 0);

  Result<std::unique_ptr<Pipeline>> pipeline = ctx->FitPipeline(cfg, train);
  if (!pipeline.ok()) return pipeline.status();
  result.pipeline = std::move(pipeline.value());
  result.eval = EvaluateModel(*result.pipeline, test);
  result.train_seconds = result.pipeline->train_stats().train_seconds;
  result.train_stats = result.pipeline->train_stats();
  return result;
}

}  // namespace qcfe
