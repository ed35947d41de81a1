#ifndef QCFE_MODELS_COST_MODEL_H_
#define QCFE_MODELS_COST_MODEL_H_

/// \file cost_model.h
/// The estimator interface shared by the PostgreSQL analytical baseline and
/// the learned models (QPPNet, MSCN). Estimators are trained on labeled
/// plans and predict total query latency in milliseconds from plan-time
/// information only.

#include <memory>
#include <string>
#include <vector>

#include "engine/plan.h"
#include "featurize/featurizer.h"
#include "nn/mlp.h"
#include "nn/scaler.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace qcfe {

class ByteReader;
class ByteWriter;
class AdamOptimizer;

/// One training/evaluation sample: an executed plan (carrying per-operator
/// actual latencies used as training signal), the environment it ran under,
/// and the total ground-truth latency.
struct PlanSample {
  const PlanNode* plan = nullptr;
  int env_id = 0;
  double label_ms = 0.0;
};

/// Training hyper-parameters.
struct TrainConfig {
  int epochs = 100;
  size_t batch_size = 32;
  double learning_rate = 1e-3;
  uint64_t seed = 1;
  /// Samples per data-parallel gradient chunk. Each optimizer batch is cut
  /// into fixed chunks of this width, and the chunks are the segmentation
  /// of every gradient sum: each chunk's rows form one zero-seeded chain
  /// per parameter element, and the chains are added in chunk index order
  /// (Mlp::AddParamGrad). QPPNet runs the chunks concurrently, one plan
  /// node per tape; MSCN runs chunk-aligned shards. The partition depends
  /// only on batch_size and the resolved chunk_size — never on the worker
  /// count — so the fitted model is bit-identical at any thread count. As
  /// a summation order, chunk_size is part of the trained bits.
  ///
  /// 0 (the default) autotunes from exact element counts (see
  /// ResolveTrainChunkSize) rather than wall timings, so the partition is
  /// deterministic and autotuned training stays bit-identical across runs
  /// and thread counts.
  size_t chunk_size = 0;
  /// If > 0, evaluate mean q-error on `eval_set` every `eval_every` epochs
  /// (drives the paper's Figure 8 convergence curves).
  int eval_every = 0;
  std::vector<PlanSample> eval_set;
};

/// Bookkeeping returned from Train().
struct TrainStats {
  double train_seconds = 0.0;
  std::vector<double> loss_curve;  ///< training loss per epoch
  /// (epoch, mean q-error on eval_set) pairs when eval_every > 0.
  std::vector<std::pair<int, double>> eval_curve;
};

/// A query cost estimator.
class CostModel {
 public:
  virtual ~CostModel() = default;

  virtual std::string name() const = 0;

  /// Trains (or continues training — learned models warm-start, which is
  /// how the transfer-learning experiment retrains a basis model).
  virtual Status Train(const std::vector<PlanSample>& train,
                       const TrainConfig& config, TrainStats* stats) = 0;

  /// One request's outcome in a per-request batched prediction: either an
  /// OK status with the predicted latency, or the request's own error.
  struct BatchPrediction {
    Status status;
    double ms = 0.0;
  };

  // Serving is one pure virtual, PredictShard (protected, below), behind
  // three non-virtual entry points: PredictBatchEach runs it shard by
  // shard, PredictBatchMs wraps PredictBatchEach, and PredictMs runs it on
  // its one request. Both runs go through ServeShard, which keeps a plan
  // that fails ValidatePlan away from PredictShard and fails a non-finite
  // prediction, each in its own slot. None of them reads the pool set by
  // set_thread_pool; the serving pool is always an explicit argument.

  /// The check every served plan passes before any model reads it: walks
  /// the tree once and returns kInvalidArgument naming the first bad node
  /// (by pre-order index, the root being node 0) for an operator type, a
  /// filter's comparison or an aggregate's kind outside its enum, or a
  /// null child. Each of those would index past a one-hot block or a
  /// per-operator table, or dereference null, inside featurization.
  static Status ValidatePlan(const PlanNode& plan);

  /// Batched prediction with per-request status isolation, the serving
  /// hot path: positionally aligned with `batch`, and a request that
  /// cannot be served (null or invalid plan, untrained model, numeric
  /// failure) fails alone instead of poisoning its co-batched neighbours.
  /// Repeated (plan, environment) requests are served once
  /// (BatchRequestDedup), null plans and plans that fail ValidatePlan fail
  /// with kInvalidArgument in their own slots, and the distinct requests
  /// are sharded into one contiguous block per worker of `pool` (null =
  /// serial). Per-request arithmetic is row-independent, so results are
  /// bit-identical for every thread count, every batch composition and
  /// every repeat pattern — a request gets the same bits alone as in any
  /// batch. This is the surface the async front end (serve/async_server.h)
  /// flushes micro-batches through.
  std::vector<BatchPrediction> PredictBatchEach(
      const std::vector<PlanSample>& batch, ThreadPool* pool = nullptr) const;

  /// All-or-nothing batched prediction: PredictBatchEach collapsed to the
  /// predictions in batch order, or the first failing request's status.
  Result<std::vector<double>> PredictBatchMs(
      const std::vector<PlanSample>& batch, ThreadPool* pool = nullptr) const;

  /// Predicted total latency (ms) for one plan under an environment: one
  /// PredictShard call, bit-identical to a one-element PredictBatchEach
  /// without its dedup and sharding bookkeeping.
  Result<double> PredictMs(const PlanNode& plan, int env_id) const;

  /// Attaches the pool that training and per-epoch evaluation run on (not
  /// owned; must outlive the model — the Pipeline owns both and guarantees
  /// this). Null detaches. Serving never reads it.
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }
  ThreadPool* thread_pool() const { return pool_; }

  /// The featurizer backing this model (nullptr for analytical models).
  virtual const OperatorFeaturizer* featurizer() const { return nullptr; }

  /// Label scaler (nullptr for analytical models).
  virtual const LogTargetScaler* label_scaler() const { return nullptr; }

  /// Materializes a plain MLP view mapping one operator's feature vector to
  /// the model's (scaled) cost prediction, holding all other model context
  /// (child outputs / sibling sets) fixed at averages over `context`.
  /// The feature-reduction algorithms (gradient and difference propagation)
  /// walk this view's layers. Analytical models return FailedPrecondition.
  virtual Result<Mlp> OperatorView(
      OpType op, const std::vector<PlanSample>& context) const {
    (void)op;
    (void)context;
    return Status::FailedPrecondition("model has no operator view");
  }

  /// Serializes the trained state — weights, scalers, optimizer moments,
  /// RNG stream position — into `w` as this model's own versioned
  /// sub-format inside an artifact's model section (core/artifact.h).
  /// Stateless analytical models write nothing.
  virtual Status SaveState(ByteWriter* w) const {
    (void)w;
    return Status::OK();
  }

  /// Restores state written by SaveState into a model constructed against
  /// the same featurizer/catalog/config: weights are overwritten **in
  /// place** (no layer or moment slot is reallocated, so optimizer
  /// parameter bindings survive). Wrong model family or architecture is
  /// kFailedPrecondition; truncated bytes are kDataLoss.
  virtual Status LoadState(ByteReader* r) {
    (void)r;
    return Status::OK();
  }

 protected:
  /// The serving virtual: fills (*out)[i] for every i in [begin, end) from
  /// requests[i]. The requests are distinct and have non-null plans; each
  /// slot gets its own prediction or its own error. Concurrent calls on
  /// disjoint ranges of one `out` must be safe (PredictBatchEach runs one
  /// per shard), and a request's result must not depend on which other
  /// requests share its range.
  virtual void PredictShard(const std::vector<PlanSample>& requests,
                            size_t begin, size_t end,
                            std::vector<BatchPrediction>* out) const = 0;

 private:
  /// PredictShard over the requests that pass ValidatePlan (in maximal
  /// contiguous runs; a rejected request takes its validation error), then
  /// the one finiteness check every serving entry point shares: a slot
  /// PredictShard left OK with a NaN or infinite value fails alone with
  /// kNumericError.
  void ServeShard(const std::vector<PlanSample>& requests, size_t begin,
                  size_t end, std::vector<BatchPrediction>* out) const;

  ThreadPool* pool_ = nullptr;
};

/// Subtree latency of a node: the per-operator training signal used by
/// plan-structured models (sum of actual_ms in the subtree).
double SubtreeLatencyMs(const PlanNode& node);

/// Cost-model constant for chunk autotuning: backprop element-traffic per
/// parameter element per sample (forward + backward + accumulate roughly
/// triple the forward's two flops per weight).
constexpr double kTrainFlopsPerParam = 6.0;

/// Resolves TrainConfig::chunk_size. Explicit widths pass through; 0
/// (auto) picks the smallest chunk whose per-chunk overhead
/// (`merge_cost_elems`) stays under a fixed fraction of the chunk's
/// compute (`per_sample_cost_elems` per sample), clamped to [1,
/// batch_size]. The overhead is still counted as the gradient elements a
/// chunk's own accumulator would zero and merge, as when every chunk owned
/// one: the resolved width is the segmentation of every gradient sum, so
/// changing the formula would change the trained bits. All inputs are
/// deterministic element counts, so the resolved width — and with it the
/// chunk partition and the trained model — is identical across runs and
/// thread counts.
size_t ResolveTrainChunkSize(const TrainConfig& config,
                             double merge_cost_elems,
                             double per_sample_cost_elems);

/// One optimizer step of data-parallel training (`slot_sq` as returned by
/// AdamOptimizer::SetGrads), refused when the batch went numerically bad:
/// a non-finite `batch_loss` (a NaN or infinite label, say) or a
/// non-finite gradient norm returns kNumericError naming `epoch` and
/// `batch` and applies no step. Without the check a NaN norm slips past
/// the clip comparison and Adam writes NaN into every weight.
Status StepBatch(AdamOptimizer* optimizer, double batch_loss,
                 const std::vector<double>& slot_sq, int epoch, size_t batch,
                 ThreadPool* pool);

/// Mean q-error of the model on `eval_set` through the batched, pool-sharded
/// serving path (PredictBatchEach). Drives the per-epoch convergence traces
/// (TrainConfig::eval_every) without serializing a full eval sweep per
/// epoch. Samples whose prediction fails are skipped.
double EvalMeanQError(const CostModel& model,
                      const std::vector<PlanSample>& eval_set,
                      ThreadPool* pool);

/// Request-level deduplication for batched serving. Production estimation
/// traffic is highly repetitive — templated workloads, knob sweeps and plan
/// enumeration all resubmit the same (plan, environment) pairs — and a
/// deterministic model maps identical requests to identical predictions, so
/// a batch only needs one forward pass per distinct request. `unique` holds
/// the distinct samples with non-null plans in first-appearance order and
/// `slot[i]` maps batch position i to its index in `unique`, or to kNullPlan
/// when batch[i] has no plan.
struct BatchRequestDedup {
  static constexpr size_t kNullPlan = static_cast<size_t>(-1);

  explicit BatchRequestDedup(const std::vector<PlanSample>& batch);

  std::vector<PlanSample> unique;
  std::vector<size_t> slot;
};

}  // namespace qcfe

#endif  // QCFE_MODELS_COST_MODEL_H_
