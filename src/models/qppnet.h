#ifndef QCFE_MODELS_QPPNET_H_
#define QCFE_MODELS_QPPNET_H_

/// \file qppnet.h
/// QPPNet (Marcus & Papaemmanouil, "Plan-Structured Deep Neural Network
/// Models for Query Performance Prediction"): one MLP "neural unit" per
/// physical operator type. A unit consumes the operator's feature vector
/// concatenated with its children's output vectors and emits a d-dimensional
/// vector whose first channel is the predicted (scaled) latency of the
/// operator's subtree; the remaining channels are a learned "data vector"
/// passed to the parent. Training backpropagates a per-operator latency loss
/// through the plan-tree structure.

#include <array>
#include <memory>

#include "models/cost_model.h"
#include "nn/optimizer.h"
#include "util/rng.h"

namespace qcfe {

/// QPPNet hyper-parameters.
struct QppNetConfig {
  size_t hidden = 48;          ///< hidden width of each neural unit
  size_t data_vector_dim = 8;  ///< unit output width (latency + data vector)
  size_t max_children = 2;     ///< plan nodes have at most two children
};

/// Plan-structured estimator.
class QppNet : public CostModel {
 public:
  /// `featurizer` must outlive the model.
  QppNet(const OperatorFeaturizer* featurizer, QppNetConfig config,
         uint64_t seed);

  std::string name() const override { return "QPPNet"; }
  /// Chunk-parallel training: each epoch's sample order (drawn from an
  /// epoch-keyed Rng::Split stream) is cut into fixed-width chunks
  /// (TrainConfig::chunk_size) independent of the worker count. Chunks of
  /// one optimizer batch forward and backprop their plans concurrently on
  /// per-node tapes via the attached thread pool, packing each node's
  /// layer inputs and output gradients into its unit's batch rows. The
  /// gradient phase then sums each unit's rows with one zero-seeded chain
  /// per chunk, added in chunk order — so the trained model is
  /// bit-identical at any thread count.
  Status Train(const std::vector<PlanSample>& train, const TrainConfig& config,
               TrainStats* stats) override;
  const OperatorFeaturizer* featurizer() const override { return featurizer_; }
  const LogTargetScaler* label_scaler() const override { return &label_scaler_; }
  Result<Mlp> OperatorView(
      OpType op, const std::vector<PlanSample>& context) const override;

  /// Persists units, per-op feature scalers, label scaler, Adam moments and
  /// the RNG stream position (core/artifact.h model section). A loaded
  /// model predicts — and, warm-started, trains — bit-identically to the
  /// original.
  Status SaveState(ByteWriter* w) const override;
  Status LoadState(ByteReader* r) override;

  const Mlp& unit(OpType op) const { return *units_[static_cast<size_t>(op)]; }

  /// Flat trainable-parameter / optimizer-bound gradient lists across all
  /// neural units, in operator order (autodiff verification and external
  /// optimizers; same layout in both lists).
  std::vector<Matrix*> Params();
  std::vector<Matrix*> Grads();

  /// Mean per-node squared loss of the scaled subtree-latency regression
  /// over `samples`, treated as one batch. With `accumulate_gradients`, the
  /// matching parameter gradients are added into Grads() (not applied).
  /// Fits the scalers on `samples` if the model is untrained. This is the
  /// differentiable quantity Train() descends, exposed so finite-difference
  /// checks can verify the tape-based composite backprop end to end.
  Result<double> TrainingLoss(const std::vector<PlanSample>& samples,
                              bool accumulate_gradients);

 protected:
  /// Wave-batched serving over one shard of distinct requests: one
  /// ForwardWaves over the shard's plans. Unit forwards are
  /// row-independent, so shard boundaries never change a prediction. An
  /// untrained model fails every slot.
  void PredictShard(const std::vector<PlanSample>& requests, size_t begin,
                    size_t end,
                    std::vector<BatchPrediction>* out) const override;

 private:
  /// Pre-encoded plan: nodes in pre-order with child links.
  struct EncodedNode {
    OpType op = OpType::kSeqScan;
    std::vector<double> feats;      ///< scaled features
    std::vector<size_t> children;   ///< indices into EncodedPlan::nodes
    double label_scaled = 0.0;      ///< scaled subtree latency
  };
  struct EncodedPlan {
    std::vector<EncodedNode> nodes;  ///< pre-order; root at 0
  };

  /// `with_labels=false` is the serving path: it skips the per-node
  /// subtree-latency/label transforms that only training needs.
  EncodedPlan EncodePlan(const PlanNode& plan, int env_id, bool scale_features,
                         bool with_labels = true) const;

  /// Encodes the plans of samples[begin, end) into `encoded` (serving
  /// encode: scaled features, no labels) and forwards every node:
  /// (*outputs)[p] gets one d-wide row per node of (*encoded)[p]. Nodes are
  /// scheduled bottom-up into "waves" whose children are already computed,
  /// and each (wave, operator type) runs one matrix-batched unit forward
  /// over all plans instead of a 1-row forward per node. Serving and
  /// OperatorView both read their outputs off this sweep.
  void ForwardWaves(const std::vector<PlanSample>& samples, size_t begin,
                    size_t end, std::vector<EncodedPlan>* encoded,
                    std::vector<Matrix>* outputs) const;

  /// One training chunk's scratch arena: per-node tapes, per-node output
  /// gradients and the unit-input row are reshaped in place across plans
  /// and batches, so steady-state training never touches the allocator.
  struct ChunkScratch {
    /// Reusable per-node forward/backward state (grown to the widest plan).
    std::vector<Mlp::Tape> tapes;
    std::vector<Matrix> node_grads;
    Matrix unit_input;
  };

  /// One neural unit's share of an optimizer batch: every linear layer's
  /// input and output gradient for each batch node of the unit's operator
  /// type, one row per node on a packed tape, in (chunk, plan, pre-order)
  /// order. Chunk c owns rows [bounds[c], bounds[c + 1]), known from the
  /// encoded plans before any chunk runs, so chunks fill disjoint rows
  /// concurrently and each chunk is one segment of Mlp::AddParamGrad.
  struct UnitRows {
    Mlp::Tape tape;
    std::vector<size_t> bounds;
  };
  using BatchRows = std::array<UnitRows, kNumOpTypes>;

  /// Lays out `rows` for the plans encoded[order[begin]], ...,
  /// encoded[order[end - 1]] cut into chunks of `chunk_size` plans:
  /// per-unit chunk bounds and packed-tape shapes.
  void LayoutBatch(const std::vector<EncodedPlan>& encoded,
                   const std::vector<size_t>& order, size_t begin, size_t end,
                   size_t chunk_size, BatchRows* rows) const;

  /// Forward + backward for one plan on per-node tapes (each node's loss
  /// gradient seeded with 2 * err * inv_node_count), writing each node's
  /// rows into its unit's packed tape at next_row[op], which advances.
  /// Returns the plan's summed squared error. Const: concurrent calls
  /// share only the read-only units and disjoint rows of `rows`.
  double TrainPlan(const EncodedPlan& plan, double inv_node_count,
                   ChunkScratch* scratch, BatchRows* rows,
                   std::array<size_t, kNumOpTypes>* next_row) const;

  /// Adds the batch gradient of parameter slot `slot` (Grads() order) from
  /// `rows` into `grad`: one chain per chunk, in chunk order.
  void AddBatchGrad(size_t slot, const BatchRows& rows, Matrix* grad) const;

  /// Fits feature scalers and the label scaler on first training.
  void FitScalers(const std::vector<PlanSample>& train);

  /// One node's unit input for the tape-based training path: the node's
  /// features, then its children's outputs read off their tapes (absent
  /// children stay 0), built in the caller's reusable scratch matrix.
  void UnitInputInto(const EncodedPlan& plan, size_t node_index,
                     const std::vector<Mlp::Tape>& tapes, Matrix* x) const;

  const OperatorFeaturizer* featurizer_;
  QppNetConfig config_;
  Rng rng_;
  std::array<std::unique_ptr<Mlp>, kNumOpTypes> units_;
  std::array<StandardScaler, kNumOpTypes> feature_scalers_;
  LogTargetScaler label_scaler_;
  bool scalers_fitted_ = false;
  std::unique_ptr<AdamOptimizer> optimizer_;
};

}  // namespace qcfe

#endif  // QCFE_MODELS_QPPNET_H_
