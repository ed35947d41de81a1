#ifndef QCFE_CORE_PIPELINE_H_
#define QCFE_CORE_PIPELINE_H_

/// \file pipeline.h
/// The public serving facade of QCFE. A Pipeline owns the whole feature-
/// engineering chain (base featurizer -> optional per-environment snapshot
/// -> optional reduction mask), the estimator behind it (any name in the
/// EstimatorRegistry: "qppnet", "mscn", "pgsql", ...), and the snapshot
/// store, so callers train, serve, inspect and transfer a cost model
/// through one object:
///
///   auto pipeline = Pipeline::Fit(db, &envs, &templates, config, train);
///   double ms   = *(*pipeline)->PredictMs(plan, env_id);       // one-off
///   auto  batch = (*pipeline)->PredictBatch(samples);          // serving
///   std::cout << (*pipeline)->Explain();                       // introspect
///
/// PredictBatch is the hot path: it forwards to the estimator's matrix-
/// batched implementation, which amortises featurization and runs batched
/// GEMMs instead of per-plan scalar loops.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/feature_reduction.h"
#include "core/feature_snapshot.h"
#include "core/qcfe.h"
#include "core/snapshot_featurizer.h"
#include "engine/database.h"
#include "models/cost_model.h"
#include "models/registry.h"
#include "serve/async_server.h"
#include "sql/template.h"
#include "util/clock.h"
#include "util/thread_pool.h"

namespace qcfe {

class Fs;
class SwappableModel;

/// Pipeline configuration. The default is the paper's full QCFE recipe
/// (FST snapshot + difference-propagation reduction) around QPPNet; setting
/// use_snapshot/use_reduction to false yields the plain baselines.
struct PipelineConfig {
  /// EstimatorRegistry name: "qppnet", "mscn", "pgsql", or any plugin.
  std::string estimator = "qppnet";

  /// Feature snapshot (Section III). `snapshot_from_templates` selects FST
  /// (simplified templates) over FSO (original queries); `snapshot_scale` is
  /// the paper's template fill scale N; kOperatorTable granularity fits
  /// extra per-(operator, table) coefficients (the paper's fine-grained
  /// extension).
  bool use_snapshot = true;
  bool snapshot_from_templates = true;
  int snapshot_scale = 2;
  SnapshotGranularity snapshot_granularity = SnapshotGranularity::kOperator;

  /// Feature reduction (Section IV).
  bool use_reduction = true;
  ReductionConfig reduction;
  int pre_reduction_epochs = 12;  ///< provisional model training budget

  /// Final model training.
  TrainConfig train;

  /// Worker threads for snapshot collection, feature reduction, training,
  /// per-epoch eval and batched serving (unset/1 = serial; see
  /// util/thread_pool.h). Every parallel task writes only its own slot and
  /// results reduce in index order, so the fitted pipeline and its
  /// predictions are bit-identical for any setting — threads buy
  /// wall-clock, never different models.
  Parallelism parallelism;

  /// Micro-batching knobs for servers built via ServeAsync(): batch-full
  /// size, deadline-flush delay, flusher threads and the admission-control
  /// queue bound (see serve/async_server.h).
  AsyncServeConfig async_serve;

  uint64_t seed = 2024;
};

/// A fitted estimation pipeline. Construct with Fit(); every owned piece
/// (featurizers, snapshot store, model) lives exactly as long as the
/// pipeline, so there is no lifetime choreography for callers.
class Pipeline {
 public:
  /// Runs the full pipeline on a training corpus: compute snapshots, train
  /// a provisional model, reduce features, train the final estimator. The
  /// db/envs/templates pointers must outlive the pipeline. Analytical
  /// estimators ("pgsql") skip snapshot and reduction.
  static Result<std::unique_ptr<Pipeline>> Fit(
      Database* db, const std::vector<Environment>* envs,
      const std::vector<QueryTemplate>* templates, const PipelineConfig& config,
      const std::vector<PlanSample>& train);

  /// Predicted latency (ms) of one plan under one environment.
  Result<double> PredictMs(const PlanNode& plan, int env_id) const;

  /// Batched prediction, positionally aligned with `samples` and
  /// bit-identical to per-plan PredictMs. This is the serving hot path.
  Result<std::vector<double>> PredictBatch(
      const std::vector<PlanSample>& samples) const;

  /// Builds an async micro-batching front end over this pipeline's fitted
  /// estimator (config knobs: PipelineConfig::async_serve). Many caller
  /// threads Submit() single plans; the server coalesces them into
  /// micro-batches and flushes through the batched serving path on
  /// batch-full or deadline, with results bit-identical to PredictBatch.
  /// The server borrows the pipeline's model and worker pool, so it must
  /// be destroyed (or shut down) before the pipeline. `clock` is for tests
  /// (null = real time).
  std::unique_ptr<AsyncServer> ServeAsync(Clock* clock = nullptr) const;

  /// Hot-swappable variant: the returned server resolves the current model
  /// from `models` once per micro-batch, so LoadAndSwap
  /// (serve/model_swap.h) can replace the pipeline behind it with zero
  /// downtime. Static because the server deliberately outlives any single
  /// pipeline generation; `models` must outlive the server.
  static std::unique_ptr<AsyncServer> ServeAsync(const SwappableModel* models,
                                                 const AsyncServeConfig& config,
                                                 Clock* clock = nullptr);

  /// Serializes the fitted pipeline — fit fingerprint, config, snapshot
  /// store, reduction kept-set, model weights/optimizer state, stats — as a
  /// versioned binary artifact (core/artifact.h) published via temp-file →
  /// fsync → atomic rename, so a crash mid-save never corrupts a
  /// previously published artifact at `path`. `fs` is the I/O seam (null =
  /// the real file system; tests inject FaultInjectingFs).
  Status Save(const std::string& path, Fs* fs = nullptr) const;

  /// Restores a pipeline saved with Save() against live db/envs/templates.
  /// The artifact's fit fingerprint is validated first: the feature-schema
  /// hash recomputed from `db`'s catalog, the environment-id set, and the
  /// estimator name must all match (kFailedPrecondition otherwise), and
  /// damaged bytes fail with kDataLoss — hostile input never aborts.
  /// Model weights are rebuilt in place against a freshly constructed
  /// estimator, so Load → PredictBatch is bit-identical to the original
  /// in-memory pipeline. Loaded pipelines serve serially (no worker pool);
  /// runtime knobs like async_serve keep their defaults.
  static Result<std::unique_ptr<Pipeline>> Load(
      Database* db, const std::vector<Environment>* envs,
      const std::vector<QueryTemplate>* templates, const std::string& path,
      Fs* fs = nullptr);

  /// Human-readable description of the fitted chain: estimator, snapshot
  /// provenance and cost, reduction ratio, training stats.
  std::string Explain() const;

  /// "QCFE(qpp)", "QPPNet", "QCFE(mscn)", "MSCN", "PGSQL", ... depending on
  /// the estimator and which QCFE stages are enabled.
  std::string name() const;

  /// Computes snapshots for additional environments (new hardware) into the
  /// existing store: the transfer-learning entry point. Follow with
  /// Retrain() on labels from the new environments.
  ///
  /// Re-collecting an env id that is already cached is a snapshot-cache
  /// collision: the stale snapshot is invalidated by the refit (the new fit
  /// depends only on this call's arguments, never on cache history; a
  /// failed collection leaves the old snapshot intact) and the call returns
  /// kAlreadyExists naming the colliding id(s). The store is still
  /// extended/refit in that case — callers that re-collect deliberately
  /// should treat kAlreadyExists as success, as the in-repo transfer
  /// drivers do.
  /// `collection_ms` (optional) is *assigned* this call's simulated
  /// collection cost — assign semantics like every other out-param in this
  /// API; the pipeline-lifetime total lives in snapshot_collection_ms().
  Status ExtendSnapshots(const std::vector<Environment>& envs,
                         bool from_templates, int scale, uint64_t seed,
                         double* collection_ms = nullptr);

  /// Continues training the fitted estimator (learned models warm-start;
  /// this is how transfer reaches basis accuracy in a fraction of the
  /// epochs). On success the pipeline's own train_stats() merge with
  /// history — train_seconds accumulates and the retrain's loss/eval curves
  /// are appended with their epochs offset past the existing curve — so
  /// Explain() and Save() always describe the training the current weights
  /// actually went through. The fit-time drift baselines
  /// (env_baseline_qerror()) are refreshed for the environments present in
  /// `train`. `stats` (optional) receives just this retrain's stats. On
  /// failure nothing changes: a batch with a non-finite loss or gradient
  /// norm is kNumericError naming its epoch and batch, and the model's
  /// weights and optimizer state are restored to what they were on entry.
  Status Retrain(const std::vector<PlanSample>& train,
                 const TrainConfig& config, TrainStats* stats = nullptr);

  // Introspection.
  const CostModel& model() const { return *model_; }
  const PipelineConfig& config() const { return config_; }
  const EstimatorInfo& estimator_info() const { return info_; }
  /// Featurizer the final model consumes (end of the chain).
  const OperatorFeaturizer* active_featurizer() const;
  const SnapshotFeaturizer* snapshot_featurizer() const {
    return snapshot_featurizer_.get();
  }
  const SnapshotStore* snapshot_store() const { return snapshot_store_.get(); }
  const ReductionResult& reduction() const { return reduction_; }
  const TrainStats& train_stats() const { return train_stats_; }
  const TrainStats& pre_train_stats() const { return pre_train_stats_; }
  double snapshot_collection_ms() const { return snapshot_collection_ms_; }
  size_t snapshot_num_queries() const { return snapshot_num_queries_; }
  size_t snapshot_num_templates() const { return snapshot_num_templates_; }
  /// The pipeline's worker pool (null when fitted with num_threads = 1).
  ThreadPool* thread_pool() const { return pool_.get(); }
  /// Per-environment mean q-error of the model on its own training corpus,
  /// computed at Fit time and refreshed by successful Retrain calls. This
  /// is the reference the online DriftDetector (src/adapt) compares live
  /// serving q-error against; it round-trips through Save/Load (artifact
  /// section kAdaptBaseline). Empty for corpora the batched predictor
  /// cannot score.
  const std::map<int, double>& env_baseline_qerror() const {
    return env_baseline_qerror_;
  }
  /// The world this pipeline was fitted against (same pointers handed to
  /// Fit/Load). Exposed so the adaptation loop can re-load artifacts via
  /// LoadAndSwap without the caller re-threading them.
  Database* database() const { return db_; }
  const std::vector<Environment>* environments() const { return envs_; }
  const std::vector<QueryTemplate>* query_templates() const {
    return templates_;
  }

 private:
  Pipeline() = default;

  Database* db_ = nullptr;
  const std::vector<Environment>* envs_ = nullptr;
  const std::vector<QueryTemplate>* templates_ = nullptr;
  PipelineConfig config_;
  EstimatorInfo info_;

  /// Declared before the model so destruction (reverse order) tears the
  /// model down while its non-owning pool pointer is still valid.
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<BaseFeaturizer> base_featurizer_;
  std::unique_ptr<SnapshotStore> snapshot_store_;
  std::unique_ptr<SnapshotFeaturizer> snapshot_featurizer_;
  std::unique_ptr<MaskedFeaturizer> masked_featurizer_;
  std::unique_ptr<CostModel> model_;

  double snapshot_collection_ms_ = 0.0;  ///< simulated label cost (Table V)
  size_t snapshot_num_queries_ = 0;
  size_t snapshot_num_templates_ = 0;
  ReductionResult reduction_;
  TrainStats pre_train_stats_;
  TrainStats train_stats_;
  std::map<int, double> env_baseline_qerror_;
};

}  // namespace qcfe

#endif  // QCFE_CORE_PIPELINE_H_
