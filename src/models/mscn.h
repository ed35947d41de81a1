#ifndef QCFE_MODELS_MSCN_H_
#define QCFE_MODELS_MSCN_H_

/// \file mscn.h
/// MSCN (Kipf et al., "Learned Cardinalities") extended to cost estimation
/// as in the paper's Section V-A: three set modules — joins, predicates, and
/// fine-grained plan operators (the extension; carries cardinalities and,
/// under QCFE, the feature snapshot) — each an MLP applied per element and
/// mean-pooled, concatenated into a final MLP that outputs query cost.

#include <memory>

#include "engine/catalog.h"
#include "models/cost_model.h"
#include "nn/optimizer.h"
#include "util/rng.h"

namespace qcfe {

/// MSCN hyper-parameters.
struct MscnConfig {
  size_t set_hidden = 32;    ///< hidden width of join/predicate modules
  size_t op_hidden = 64;     ///< hidden width of the operator module
  size_t final_hidden = 64;  ///< hidden width of the output MLP
};

/// Set-based estimator.
class Mscn : public CostModel {
 public:
  /// `catalog` provides the join/predicate vocabularies and literal
  /// normalisation stats; `featurizer` encodes the operator set. The
  /// featurizer must use the same width for every operator type (MSCN's
  /// operator module is a single MLP), which base and uniformly-masked
  /// featurizers satisfy. Both must outlive the model.
  Mscn(const Catalog* catalog, const OperatorFeaturizer* featurizer,
       MscnConfig config, uint64_t seed);

  std::string name() const override { return "MSCN"; }
  /// Batch-wide training: each epoch's query order (drawn from an
  /// epoch-keyed Rng::Split stream) is cut into optimizer batches, and
  /// each batch into fixed-width chunks (TrainConfig::chunk_size)
  /// independent of the worker count. A batch runs as at most one
  /// chunk-aligned shard per worker of the attached pool; each shard packs,
  /// forwards and backprops its queries once. Parameter gradients are then
  /// written straight into the optimizer-bound gradients, one row block of
  /// a gradient per task, as one zero-seeded sum per chunk added in chunk
  /// order — bit-identical models at any thread count.
  Status Train(const std::vector<PlanSample>& train, const TrainConfig& config,
               TrainStats* stats) override;
  const OperatorFeaturizer* featurizer() const override { return featurizer_; }
  const LogTargetScaler* label_scaler() const override { return &label_scaler_; }
  Result<Mlp> OperatorView(
      OpType op, const std::vector<PlanSample>& context) const override;

  /// Persists the four module networks, set/label scalers, Adam moments,
  /// the RNG stream position and the catalog-derived slot maps — the slot
  /// maps are *validated* on load, so an artifact fit against a different
  /// catalog vocabulary is rejected instead of silently mis-encoding.
  Status SaveState(ByteWriter* w) const override;
  Status LoadState(ByteReader* r) override;

  size_t join_dim() const { return join_dim_; }
  size_t pred_dim() const { return pred_dim_; }
  size_t op_dim() const { return op_dim_; }

  /// Flat trainable-parameter / optimizer-bound gradient lists across the
  /// four modules (join, predicate, operator, final), for autodiff
  /// verification and external optimizers (same layout in both lists).
  std::vector<Matrix*> Params();
  std::vector<Matrix*> Grads();

  /// Mean squared loss of the scaled-cost regression over `samples`,
  /// treated as one batch. With `accumulate_gradients`, the matching
  /// parameter gradients are added into Grads() (not applied). Fits the
  /// scalers on `samples` if the model is untrained. Exposed so
  /// finite-difference checks can verify the composite set-module backprop.
  Result<double> TrainingLoss(const std::vector<PlanSample>& samples,
                              bool accumulate_gradients);

 protected:
  /// Batched serving over one shard of distinct requests: the shard's
  /// queries are packed into one element matrix per set module, so each
  /// module runs a single matrix-batched forward over all their elements
  /// instead of one tiny forward per query. Module forwards and
  /// SegmentMean are per-row/per-query, so shard boundaries never change a
  /// prediction. An untrained model fails every slot.
  void PredictShard(const std::vector<PlanSample>& requests, size_t begin,
                    size_t end,
                    std::vector<BatchPrediction>* out) const override;

 private:
  /// Pre-encoded query: the three element sets (each at least one row; empty
  /// sets contribute a single zero row, MSCN's padding convention).
  struct EncodedQuery {
    std::vector<std::vector<double>> joins;
    std::vector<std::vector<double>> preds;
    std::vector<std::vector<double>> ops;
    double label_scaled = 0.0;
  };

  EncodedQuery EncodeQuery(const PlanNode& plan, int env_id,
                           bool scale) const;

  std::vector<double> EncodeJoin(const JoinCondition& join) const;
  std::vector<double> EncodePredicate(const Predicate& pred) const;

  /// Packs queries into per-module element matrices with segment offsets.
  struct Packed {
    Matrix joins, preds, ops;
    std::vector<size_t> join_offsets, pred_offsets, op_offsets;  // size nq+1
    std::vector<double> labels;
  };
  Packed Pack(const std::vector<const EncodedQuery*>& batch) const;
  /// Pack into a reusable arena: matrices and offset vectors are reshaped
  /// in place, so repacking chunks of steady size never allocates.
  void PackInto(const std::vector<const EncodedQuery*>& batch,
                Packed* packed) const;

  /// One forward/backward pass's activation and gradient record across
  /// the four modules.
  struct NetTapes {
    Mlp::Tape join, pred, op, final_net;
  };

  /// One training shard: a chunk-aligned run of an optimizer batch's
  /// queries, packed, forwarded and backpropagated once. Its tapes keep
  /// every linear layer's output gradient, and the bounds cut each
  /// module's rows at the chunk boundaries, so the parameter gradients can
  /// be summed per chunk afterwards (AddShardGrad). Shards are reused
  /// across batches, reshaped in place, so steady-state training never
  /// touches the allocator.
  struct Shard {
    NetTapes tapes;
    Packed packed;
    std::vector<const EncodedQuery*> refs;
    Matrix pooled_join, pooled_pred, pooled_op, concat;
    /// Chunk boundaries as row offsets into the shard's queries (the final
    /// module's rows) and into each set module's element rows.
    std::vector<size_t> query_bounds, join_bounds, pred_bounds, op_bounds;
  };

  /// Forward returns per-query predictions (nq x 1) of the shard's packed
  /// queries as a reference into the final-module tape, recording module
  /// activations on the shard's tapes. Const and state-free: concurrent
  /// shards share only the read-only modules.
  const Matrix& ForwardPacked(Shard* shard) const;
  Matrix PredictPacked(const Packed& packed) const;
  /// Backprop from the output gradient the caller left in the final
  /// module tape's grads.back(), keeping every module's layer gradients on
  /// the shard's tapes.
  void BackwardPacked(Shard* shard) const;

  /// Pack + forward + backward for queries [begin, end) of `order`, cut
  /// into chunks of `chunk_size` queries (seeded with 2 * err * inv_batch
  /// per query). Writes each chunk's summed squared error to
  /// chunk_losses[0], chunk_losses[1], ...
  void TrainShard(const std::vector<EncodedQuery>& encoded,
                  const std::vector<size_t>& order, size_t begin, size_t end,
                  size_t chunk_size, double inv_batch, Shard* shard,
                  double* chunk_losses) const;

  /// Adds the shard's contribution to rows [row_begin, row_end) of
  /// optimizer gradient slot block.slot (Grads() order) into `grad`: one
  /// chain per chunk, in chunk order.
  void AddShardGrad(const AdamOptimizer::GradBlock& block,
                    const Shard& shard, Matrix* grad) const;

  /// The gradient phase's tasks: every optimizer gradient slot, heavy ones
  /// cut into row blocks of about equal work for `workers` threads, given
  /// the mean rows per query of each module (join, pred, op, final).
  std::vector<AdamOptimizer::GradBlock> GradBlocks(
      const double* module_rows, size_t workers);

  void FitScalers(const std::vector<EncodedQuery>& queries,
                  const std::vector<double>& labels_ms);

  const Catalog* catalog_;
  const OperatorFeaturizer* featurizer_;
  MscnConfig config_;
  Rng rng_;
  size_t join_dim_ = 0;
  size_t pred_dim_ = 0;
  size_t op_dim_ = 0;
  std::map<std::string, size_t> table_slots_;
  std::map<std::string, size_t> column_slots_;

  std::unique_ptr<Mlp> join_net_;
  std::unique_ptr<Mlp> pred_net_;
  std::unique_ptr<Mlp> op_net_;
  std::unique_ptr<Mlp> final_net_;
  StandardScaler join_scaler_, pred_scaler_, op_scaler_;
  LogTargetScaler label_scaler_;
  bool scalers_fitted_ = false;
  std::unique_ptr<AdamOptimizer> optimizer_;
  /// Optimizer gradient slot -> (module: join, pred, op, final; slot within
  /// that module's Grads()).
  std::vector<std::pair<size_t, size_t>> grad_slots_;
};

}  // namespace qcfe

#endif  // QCFE_MODELS_MSCN_H_
