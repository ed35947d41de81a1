#include "models/qppnet.h"

#include <algorithm>
#include <cmath>

#include "models/registry.h"
#include "util/env_config.h"
#include "util/serialize.h"
#include "util/stats.h"

namespace qcfe {

namespace {
/// Model-section sub-format marker; bump on any layout change so an old
/// binary rejects a new artifact with a clear error instead of misparsing.
constexpr const char kQppNetStateMarker[] = "qppnet-state-v1";
}  // namespace

QppNet::QppNet(const OperatorFeaturizer* featurizer, QppNetConfig config,
               uint64_t seed)
    : featurizer_(featurizer), config_(config), rng_(seed) {
  for (OpType op : AllOpTypes()) {
    size_t in = featurizer_->dim(op) +
                config_.max_children * config_.data_vector_dim;
    units_[static_cast<size_t>(op)] = std::make_unique<Mlp>(
        std::vector<size_t>{in, config_.hidden, config_.hidden,
                            config_.data_vector_dim},
        Activation::kRelu, &rng_);
  }
  std::vector<Matrix*> params, grads;
  for (auto& unit : units_) {
    for (Matrix* p : unit->Params()) params.push_back(p);
    for (Matrix* g : unit->Grads()) grads.push_back(g);
  }
  auto adam = std::make_unique<AdamOptimizer>(params, grads, 1e-3);
  adam->set_clip_norm(5.0);
  optimizer_ = std::move(adam);
}

void QppNet::FitScalers(const std::vector<PlanSample>& train) {
  if (scalers_fitted_) return;
  // Gather raw features and subtree latencies per operator type.
  std::array<std::vector<std::vector<double>>, kNumOpTypes> rows;
  std::vector<double> latencies;
  for (const auto& sample : train) {
    std::function<void(const PlanNode&, size_t)> walk = [&](const PlanNode& n,
                                                            size_t depth) {
      rows[static_cast<size_t>(n.op)].push_back(
          featurizer_->Encode(n, depth, sample.env_id));
      latencies.push_back(SubtreeLatencyMs(n));
      for (const auto& c : n.children) walk(*c, depth + 1);
    };
    walk(*sample.plan, 0);
  }
  for (OpType op : AllOpTypes()) {
    size_t oi = static_cast<size_t>(op);
    size_t dim = featurizer_->dim(op);
    if (rows[oi].empty()) {
      // Never-seen operator: identity scaling.
      Matrix empty(1, dim);
      feature_scalers_[oi].Fit(empty);
      continue;
    }
    Matrix m(rows[oi].size(), dim);
    for (size_t r = 0; r < rows[oi].size(); ++r) m.SetRow(r, rows[oi][r]);
    feature_scalers_[oi].Fit(m);
  }
  label_scaler_.Fit(latencies);
  scalers_fitted_ = true;
}

QppNet::EncodedPlan QppNet::EncodePlan(const PlanNode& plan, int env_id,
                                       bool scale_features,
                                       bool with_labels) const {
  EncodedPlan encoded;
  std::function<size_t(const PlanNode&, size_t)> walk =
      [&](const PlanNode& n, size_t depth) -> size_t {
    size_t index = encoded.nodes.size();
    encoded.nodes.emplace_back();
    encoded.nodes[index].op = n.op;
    encoded.nodes[index].label_scaled =
        with_labels && label_scaler_.fitted()
            ? label_scaler_.TransformOne(SubtreeLatencyMs(n))
            : 0.0;
    std::vector<double> feats = featurizer_->Encode(n, depth, env_id);
    if (scale_features) {
      // Inline standardisation: identical arithmetic to
      // StandardScaler::Transform, without the per-node matrix round-trip.
      const StandardScaler& sc = feature_scalers_[static_cast<size_t>(n.op)];
      if (sc.fitted()) {
        const std::vector<double>& mean = sc.mean();
        const std::vector<double>& std = sc.stddev();
        for (size_t i = 0; i < feats.size(); ++i) {
          feats[i] = (feats[i] - mean[i]) / std[i];
        }
      }
    }
    encoded.nodes[index].feats = std::move(feats);
    for (const auto& c : n.children) {
      size_t child = walk(*c, depth + 1);
      encoded.nodes[index].children.push_back(child);
    }
    return index;
  };
  walk(plan, 0);
  return encoded;
}

Matrix QppNet::UnitInput(const EncodedPlan& plan, size_t node_index,
                         const std::vector<Matrix>& node_outputs) const {
  const EncodedNode& node = plan.nodes[node_index];
  size_t d = config_.data_vector_dim;
  size_t feat_dim = node.feats.size();
  Matrix x(1, feat_dim + config_.max_children * d);
  for (size_t i = 0; i < feat_dim; ++i) x.At(0, i) = node.feats[i];
  for (size_t c = 0; c < node.children.size() && c < config_.max_children;
       ++c) {
    const Matrix& child_out = node_outputs[node.children[c]];
    for (size_t i = 0; i < d; ++i) {
      x.At(0, feat_dim + c * d + i) = child_out.At(0, i);
    }
  }
  return x;
}

void QppNet::UnitInputInto(const EncodedPlan& plan, size_t node_index,
                           const std::vector<Mlp::Tape>& tapes,
                           Matrix* x) const {
  const EncodedNode& node = plan.nodes[node_index];
  size_t d = config_.data_vector_dim;
  size_t feat_dim = node.feats.size();
  // ResetShape (zeroing) keeps absent-children slots at exactly 0.0, like
  // the freshly constructed matrix UnitInput builds.
  x->ResetShape(1, feat_dim + config_.max_children * d);
  double* row = x->RowPtr(0);
  for (size_t i = 0; i < feat_dim; ++i) row[i] = node.feats[i];
  for (size_t c = 0; c < node.children.size() && c < config_.max_children;
       ++c) {
    const double* child_out =
        tapes[node.children[c]].activations.back().RowPtr(0);
    for (size_t i = 0; i < d; ++i) row[feat_dim + c * d + i] = child_out[i];
  }
}

void QppNet::ForwardPlan(const EncodedPlan& plan,
                         std::vector<Matrix>* node_outputs) const {
  node_outputs->assign(plan.nodes.size(), Matrix());
  // Children precede use: walk indices in reverse pre-order so leaves are
  // computed before parents (children always have larger indices).
  for (size_t ii = plan.nodes.size(); ii > 0; --ii) {
    size_t i = ii - 1;
    Matrix x = UnitInput(plan, i, *node_outputs);
    (*node_outputs)[i] =
        units_[static_cast<size_t>(plan.nodes[i].op)]->Predict(x);
  }
}

void QppNet::LayoutBatch(const std::vector<EncodedPlan>& encoded,
                         const std::vector<size_t>& order, size_t begin,
                         size_t end, size_t chunk_size,
                         BatchRows* rows) const {
  std::array<size_t, kNumOpTypes> count{};
  for (UnitRows& unit : *rows) unit.bounds.assign(1, 0);
  for (size_t cs = begin; cs < end; cs += chunk_size) {
    for (size_t i = cs; i < std::min(cs + chunk_size, end); ++i) {
      for (const EncodedNode& node : encoded[order[i]].nodes) {
        ++count[static_cast<size_t>(node.op)];
      }
    }
    for (size_t oi = 0; oi < kNumOpTypes; ++oi) {
      (*rows)[oi].bounds.push_back(count[oi]);
    }
  }
  for (size_t oi = 0; oi < kNumOpTypes; ++oi) {
    units_[oi]->ShapeParamRows(count[oi], &(*rows)[oi].tape);
  }
}

double QppNet::TrainPlan(const EncodedPlan& plan, double inv_node_count,
                         ChunkScratch* scratch, BatchRows* rows,
                         std::array<size_t, kNumOpTypes>* next_row) const {
  size_t d = config_.data_vector_dim;
  size_t n = plan.nodes.size();
  // Bottom-up forward recording one reused tape per node (children always
  // have larger pre-order indices, so reverse order computes leaves first).
  // Tapes, per-node gradients and the unit-input row all live in the
  // chunk's scratch arena, so a warm arena runs the whole forward/backward
  // without allocating.
  if (scratch->tapes.size() < n) scratch->tapes.resize(n);
  if (scratch->node_grads.size() < n) scratch->node_grads.resize(n);
  std::vector<Mlp::Tape>& tapes = scratch->tapes;
  for (size_t ii = n; ii > 0; --ii) {
    size_t i = ii - 1;
    UnitInputInto(plan, i, tapes, &scratch->unit_input);
    units_[static_cast<size_t>(plan.nodes[i].op)]->Forward(
        scratch->unit_input, &tapes[i]);
  }

  std::vector<Matrix>& grads = scratch->node_grads;
  for (size_t i = 0; i < n; ++i) grads[i].ResetShape(1, d);
  double loss = 0.0;
  // Pre-order: parents first, so parent-propagated gradients are complete
  // before a node's own backward pass runs.
  for (size_t i = 0; i < n; ++i) {
    const EncodedNode& node = plan.nodes[i];
    double err = tapes[i].activations.back().At(0, 0) - node.label_scaled;
    loss += err * err;
    grads[i].At(0, 0) += 2.0 * err * inv_node_count;

    size_t oi = static_cast<size_t>(node.op);
    const Matrix& gx = units_[oi]->Backward(grads[i], &tapes[i]);
    units_[oi]->PackParamRow(tapes[i], (*next_row)[oi]++, &(*rows)[oi].tape);
    size_t feat_dim = node.feats.size();
    for (size_t c = 0; c < node.children.size() && c < config_.max_children;
         ++c) {
      for (size_t k = 0; k < d; ++k) {
        grads[node.children[c]].At(0, k) += gx.At(0, feat_dim + c * d + k);
      }
    }
  }
  return loss;
}

void QppNet::AddBatchGrad(size_t slot, const BatchRows& rows,
                          Matrix* grad) const {
  // Every unit has the same layer stack, so the same number of slots.
  size_t per_unit = 0;
  for (const auto& layer : units_[0]->layers()) {
    per_unit += layer->num_param_grads();
  }
  const UnitRows& unit = rows[slot / per_unit];
  // A unit no node of the batch reached keeps its zeroed (+0) gradient.
  if (unit.bounds.back() == 0) return;
  units_[slot / per_unit]->AddParamGrad(slot % per_unit, unit.tape,
                                        unit.bounds, grad);
}

Status QppNet::Train(const std::vector<PlanSample>& train,
                     const TrainConfig& config, TrainStats* stats) {
  if (train.empty()) return Status::InvalidArgument("empty training set");
  WallTimer timer;
  FitScalers(train);
  static_cast<AdamOptimizer*>(optimizer_.get())->set_lr(config.learning_rate);
  ThreadPool* pool = thread_pool();

  // Pre-encode all plans once (per-plan tasks; gathered in sample order).
  std::vector<EncodedPlan> encoded =
      ParallelMap<EncodedPlan>(pool, train.size(), [&](size_t i) {
        return EncodePlan(*train[i].plan, train[i].env_id,
                          /*scale_features=*/true);
      });

  Rng train_rng(config.seed);
  std::vector<size_t> order(encoded.size());
  // Chunk autotuning (chunk_size == 0). The chunk width decides where each
  // batch's gradient sums are cut, so it is part of the trained bits and
  // keeps the derivation it had when every chunk owned a gradient sink:
  // per-chunk overhead is the gradient elements zeroed and merged for the
  // unit types a chunk touches; per-plan compute is proportional to plan
  // nodes x unit parameter elements. Both are exact element counts over the
  // encoded training set — deterministic, so the partition stays
  // thread-count- and run-independent.
  double merge_elems = 0.0;
  double plan_elems = 0.0;
  {
    std::array<double, kNumOpTypes> unit_elems{};
    for (size_t oi = 0; oi < kNumOpTypes; ++oi) {
      for (const Matrix* g : units_[oi]->Grads()) unit_elems[oi] += g->size();
    }
    for (const auto& plan : encoded) {
      std::array<bool, kNumOpTypes> seen{};
      for (const auto& node : plan.nodes) {
        size_t oi = static_cast<size_t>(node.op);
        plan_elems += kTrainFlopsPerParam * unit_elems[oi];
        seen[oi] = true;
      }
      for (size_t oi = 0; oi < kNumOpTypes; ++oi) {
        if (seen[oi]) merge_elems += 2.0 * unit_elems[oi];
      }
    }
    merge_elems /= static_cast<double>(encoded.size());
    plan_elems /= static_cast<double>(encoded.size());
  }
  const size_t chunk_size =
      ResolveTrainChunkSize(config, merge_elems, plan_elems);
  // The chunk partition depends only on batch_size and the resolved
  // chunk_size, never on the worker count, and each gradient is summed one
  // chain per chunk in chunk order, which keeps the fitted model
  // bit-identical at any thread count. Scratch and packed rows are reused
  // across batches.
  std::vector<ChunkScratch> scratch;
  BatchRows rows;
  std::vector<double> chunk_losses;
  std::vector<double> slot_sq;
  std::vector<Optimizer::GradBlock> grad_blocks;
  {
    const std::vector<Matrix*> grads = Grads();
    for (size_t s = 0; s < grads.size(); ++s) {
      grad_blocks.push_back({s, 0, grads[s]->rows()});
    }
  }

  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    // Per-epoch order from an epoch-keyed Split stream: epoch e's shuffle
    // depends only on (seed, e), not on thread count or prior epochs.
    Rng epoch_rng = train_rng.Split(static_cast<uint64_t>(epoch));
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    epoch_rng.Shuffle(&order);

    double epoch_loss = 0.0;
    size_t epoch_nodes = 0;
    for (size_t start = 0; start < order.size(); start += config.batch_size) {
      size_t end = std::min(start + config.batch_size, order.size());
      LayoutBatch(encoded, order, start, end, chunk_size, &rows);
      size_t batch_nodes = 0;
      for (const UnitRows& unit : rows) batch_nodes += unit.bounds.back();
      double inv = batch_nodes > 0 ? 1.0 / static_cast<double>(batch_nodes)
                                   : 1.0;
      size_t num_chunks = (end - start + chunk_size - 1) / chunk_size;
      if (scratch.size() < num_chunks) scratch.resize(num_chunks);
      chunk_losses.assign(num_chunks, 0.0);
      ParallelFor(pool, num_chunks, [&](size_t c) {
        std::array<size_t, kNumOpTypes> next_row{};
        for (size_t oi = 0; oi < kNumOpTypes; ++oi) {
          next_row[oi] = rows[oi].bounds[c];
        }
        size_t cs = start + c * chunk_size;
        size_t ce = std::min(cs + chunk_size, end);
        double loss = 0.0;
        for (size_t i = cs; i < ce; ++i) {
          loss += TrainPlan(encoded[order[i]], inv, &scratch[c], &rows,
                            &next_row);
        }
        chunk_losses[c] = loss;
      });
      // Fixed-order reductions: losses in chunk order, and each gradient
      // slot over its unit's chunks in chunk order.
      double batch_loss = 0.0;
      for (size_t c = 0; c < num_chunks; ++c) {
        batch_loss += chunk_losses[c];
        epoch_loss += chunk_losses[c];
      }
      optimizer_->SetGrads(
          grad_blocks,
          [&](const Optimizer::GradBlock& block, Matrix* grad) {
            AddBatchGrad(block.slot, rows, grad);
          },
          pool, &slot_sq);
      epoch_nodes += batch_nodes;
      QCFE_RETURN_IF_ERROR(StepBatch(optimizer_.get(), batch_loss, slot_sq,
                                     epoch, start / config.batch_size, pool));
    }
    if (stats != nullptr) {
      stats->loss_curve.push_back(
          epoch_nodes > 0 ? epoch_loss / static_cast<double>(epoch_nodes)
                          : 0.0);
      if (config.eval_every > 0 && !config.eval_set.empty() &&
          (epoch + 1) % config.eval_every == 0) {
        stats->eval_curve.emplace_back(
            epoch + 1, EvalMeanQError(*this, config.eval_set, pool));
      }
    }
  }
  if (stats != nullptr) stats->train_seconds = timer.Seconds();
  return Status::OK();
}

std::vector<Matrix*> QppNet::Params() {
  std::vector<Matrix*> out;
  for (auto& unit : units_) {
    for (Matrix* p : unit->Params()) out.push_back(p);
  }
  return out;
}

std::vector<Matrix*> QppNet::Grads() {
  std::vector<Matrix*> out;
  for (auto& unit : units_) {
    for (Matrix* g : unit->Grads()) out.push_back(g);
  }
  return out;
}

Result<double> QppNet::TrainingLoss(const std::vector<PlanSample>& samples,
                                    bool accumulate_gradients) {
  if (samples.empty()) return Status::InvalidArgument("empty sample set");
  FitScalers(samples);
  std::vector<EncodedPlan> encoded;
  encoded.reserve(samples.size());
  size_t total_nodes = 0;
  for (const auto& s : samples) {
    encoded.push_back(EncodePlan(*s.plan, s.env_id, /*scale_features=*/true));
    total_nodes += encoded.back().nodes.size();
  }
  if (total_nodes == 0) return Status::InvalidArgument("no plan nodes");
  double inv = 1.0 / static_cast<double>(total_nodes);
  // The whole sample set is one chunk.
  std::vector<size_t> order(encoded.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  BatchRows rows;
  LayoutBatch(encoded, order, 0, order.size(), order.size(), &rows);
  std::array<size_t, kNumOpTypes> next_row{};
  ChunkScratch scratch;
  double loss = 0.0;
  for (const auto& plan : encoded) {
    loss += TrainPlan(plan, inv, &scratch, &rows, &next_row);
  }
  if (accumulate_gradients) {
    std::vector<Matrix*> grads = Grads();
    for (size_t s = 0; s < grads.size(); ++s) {
      AddBatchGrad(s, rows, grads[s]);
    }
  }
  return loss * inv;
}

Result<double> QppNet::PredictMs(const PlanNode& plan, int env_id) const {
  if (!scalers_fitted_) {
    return Status::FailedPrecondition("QPPNet is untrained");
  }
  EncodedPlan encoded = EncodePlan(plan, env_id, /*scale_features=*/true);
  std::vector<Matrix> outs;
  ForwardPlan(encoded, &outs);
  return label_scaler_.InverseTransformOne(
      label_scaler_.ClampTransformed(outs[0].At(0, 0)));
}

void QppNet::PredictShard(const std::vector<PlanSample>& requests,
                          size_t begin, size_t end,
                          std::vector<double>* out) const {
  const size_t d = config_.data_vector_dim;
  const size_t count = end - begin;

  // Featurize each distinct plan of this shard once through the lean
  // serving encode.
  std::vector<EncodedPlan> encoded;
  encoded.reserve(count);
  for (size_t s = begin; s < end; ++s) {
    encoded.push_back(EncodePlan(*requests[s].plan, requests[s].env_id,
                                 /*scale_features=*/true,
                                 /*with_labels=*/false));
  }

  // Schedule nodes into waves: wave w holds nodes whose children all sit in
  // earlier waves. Children have larger pre-order indices, so one reverse
  // sweep per plan computes every wave number.
  size_t max_wave = 0;
  std::vector<std::vector<size_t>> wave(encoded.size());
  for (size_t p = 0; p < encoded.size(); ++p) {
    const auto& nodes = encoded[p].nodes;
    wave[p].assign(nodes.size(), 0);
    for (size_t ii = nodes.size(); ii > 0; --ii) {
      size_t i = ii - 1;
      size_t w = 0;
      for (size_t c : nodes[i].children) w = std::max(w, wave[p][c] + 1);
      wave[p][i] = w;
      max_wave = std::max(max_wave, w);
    }
  }

  // Per-plan node outputs, one d-wide row per node.
  std::vector<Matrix> outputs;
  outputs.reserve(encoded.size());
  for (const auto& plan : encoded) outputs.emplace_back(plan.nodes.size(), d);

  // One matrix-batched unit forward per (wave, operator type): every plan in
  // the shard contributes its wave-w nodes of that type as rows. Unit
  // forwards compute each row independently, so which plans share a shard
  // (and hence a matrix) never changes any output row.
  struct NodeRef {
    size_t plan;
    size_t node;
  };
  std::array<std::vector<NodeRef>, kNumOpTypes> buckets;
  Mlp::Scratch scratch;
  Matrix x;
  for (size_t w = 0; w <= max_wave; ++w) {
    for (auto& bucket : buckets) bucket.clear();
    for (size_t p = 0; p < encoded.size(); ++p) {
      for (size_t i = 0; i < encoded[p].nodes.size(); ++i) {
        if (wave[p][i] == w) {
          buckets[static_cast<size_t>(encoded[p].nodes[i].op)].push_back(
              {p, i});
        }
      }
    }
    for (OpType op : AllOpTypes()) {
      const auto& bucket = buckets[static_cast<size_t>(op)];
      if (bucket.empty()) continue;
      size_t feat_dim = featurizer_->dim(op);
      x.ResetShape(bucket.size(), feat_dim + config_.max_children * d);
      for (size_t r = 0; r < bucket.size(); ++r) {
        const EncodedNode& node =
            encoded[bucket[r].plan].nodes[bucket[r].node];
        double* row = x.RowPtr(r);
        for (size_t i = 0; i < node.feats.size(); ++i) row[i] = node.feats[i];
        const Matrix& plan_outputs = outputs[bucket[r].plan];
        for (size_t c = 0;
             c < node.children.size() && c < config_.max_children; ++c) {
          const double* child = plan_outputs.RowPtr(node.children[c]);
          for (size_t k = 0; k < d; ++k) row[feat_dim + c * d + k] = child[k];
        }
      }
      const Matrix& y = units_[static_cast<size_t>(op)]->Predict(x, &scratch);
      for (size_t r = 0; r < bucket.size(); ++r) {
        double* dst = outputs[bucket[r].plan].RowPtr(bucket[r].node);
        const double* src = y.RowPtr(r);
        for (size_t k = 0; k < d; ++k) dst[k] = src[k];
      }
    }
  }

  for (size_t p = 0; p < encoded.size(); ++p) {
    (*out)[begin + p] = label_scaler_.InverseTransformOne(
        label_scaler_.ClampTransformed(outputs[p].At(0, 0)));
  }
}

Result<std::vector<double>> QppNet::PredictBatchMs(
    const std::vector<PlanSample>& batch, ThreadPool* pool) const {
  if (!scalers_fitted_) {
    return Status::FailedPrecondition("QPPNet is untrained");
  }
  if (batch.empty()) return std::vector<double>{};

  // Deduplicate repeated (plan, environment) requests, then shard the
  // distinct requests into one contiguous block per worker; every shard
  // runs its own wave-batched sweep with its own scratch buffers.
  BatchRequestDedup dedup(batch);
  const std::vector<PlanSample>& requests = dedup.unique;
  for (const auto& s : requests) {
    if (s.plan == nullptr) {
      return Status::InvalidArgument("null plan in prediction batch");
    }
  }
  std::vector<double> result(requests.size());
  std::vector<std::pair<size_t, size_t>> shards = PartitionBlocks(
      requests.size(), pool == nullptr ? 1 : pool->num_workers());
  ParallelFor(pool, shards.size(), [&](size_t b) {
    PredictShard(requests, shards[b].first, shards[b].second, &result);
  });
  return dedup.Expand(result);
}

Result<Mlp> QppNet::OperatorView(
    OpType op, const std::vector<PlanSample>& context) const {
  if (!scalers_fitted_) {
    return Status::FailedPrecondition("QPPNet is untrained");
  }
  size_t oi = static_cast<size_t>(op);
  size_t feat_dim = featurizer_->dim(op);
  size_t d = config_.data_vector_dim;
  size_t child_dims = config_.max_children * d;

  // Average child-output context for this operator type over the context set.
  std::vector<double> child_ctx(child_dims, 0.0);
  size_t ctx_count = 0;
  for (const auto& s : context) {
    EncodedPlan encoded = EncodePlan(*s.plan, s.env_id, true);
    std::vector<Matrix> outs;
    ForwardPlan(encoded, &outs);
    for (size_t i = 0; i < encoded.nodes.size(); ++i) {
      if (encoded.nodes[i].op != op) continue;
      Matrix x = UnitInput(encoded, i, outs);
      for (size_t k = 0; k < child_dims; ++k) {
        child_ctx[k] += x.At(0, feat_dim + k);
      }
      ++ctx_count;
    }
  }
  if (ctx_count > 0) {
    for (double& v : child_ctx) v /= static_cast<double>(ctx_count);
  }

  // View = Embed(raw feat -> [scaled feat, child_ctx]) ∘ unit layers ∘
  // SelectChannel0. Folding the standardisation into the embed layer means
  // the view consumes *raw* featurizer output, so reduction code needs no
  // access to the model's internal scalers.
  Mlp view;
  auto embed = Mlp::MakeZeroLinear(feat_dim, feat_dim + child_dims);
  const StandardScaler& sc = feature_scalers_[oi];
  for (size_t i = 0; i < feat_dim; ++i) {
    double std = sc.fitted() ? sc.stddev()[i] : 1.0;
    double mean = sc.fitted() ? sc.mean()[i] : 0.0;
    embed->weights().At(i, i) = 1.0 / std;
    embed->bias().At(0, i) = -mean / std;
  }
  for (size_t k = 0; k < child_dims; ++k) {
    embed->bias().At(0, feat_dim + k) = child_ctx[k];
  }
  view.AppendLayer(std::move(embed));
  for (const auto& layer : units_[oi]->layers()) {
    view.AppendLayer(Mlp::CloneLayer(*layer));
  }
  auto select = Mlp::MakeZeroLinear(d, 1);
  select->weights().At(0, 0) = 1.0;
  view.AppendLayer(std::move(select));
  return view;
}

Status QppNet::SaveState(ByteWriter* w) const {
  w->PutString(kQppNetStateMarker);
  w->PutU64(config_.hidden);
  w->PutU64(config_.data_vector_dim);
  w->PutU64(config_.max_children);
  w->PutU64(rng_.state());
  w->PutBool(scalers_fitted_);
  for (const StandardScaler& scaler : feature_scalers_) scaler.SaveBinary(w);
  label_scaler_.SaveBinary(w);
  for (const auto& unit : units_) unit->SaveBinary(w);
  optimizer_->SaveState(w);
  return Status::OK();
}

Status QppNet::LoadState(ByteReader* r) {
  std::string marker;
  QCFE_RETURN_IF_ERROR(r->ReadString(&marker));
  if (marker != kQppNetStateMarker) {
    return Status::FailedPrecondition("model state is not " +
                                      std::string(kQppNetStateMarker) +
                                      " (found \"" + marker + "\")");
  }
  uint64_t hidden = 0, dvec = 0, max_children = 0;
  QCFE_RETURN_IF_ERROR(r->ReadU64(&hidden));
  QCFE_RETURN_IF_ERROR(r->ReadU64(&dvec));
  QCFE_RETURN_IF_ERROR(r->ReadU64(&max_children));
  if (hidden != config_.hidden || dvec != config_.data_vector_dim ||
      max_children != config_.max_children) {
    return Status::FailedPrecondition(
        "saved qppnet config (hidden=" + std::to_string(hidden) +
        ", data_vector_dim=" + std::to_string(dvec) +
        ", max_children=" + std::to_string(max_children) +
        ") does not match this model (hidden=" +
        std::to_string(config_.hidden) +
        ", data_vector_dim=" + std::to_string(config_.data_vector_dim) +
        ", max_children=" + std::to_string(config_.max_children) + ")");
  }
  uint64_t rng_state = 0;
  QCFE_RETURN_IF_ERROR(r->ReadU64(&rng_state));
  rng_.set_state(rng_state);
  QCFE_RETURN_IF_ERROR(r->ReadBool(&scalers_fitted_));
  for (size_t i = 0; i < feature_scalers_.size(); ++i) {
    QCFE_RETURN_IF_ERROR(feature_scalers_[i].LoadBinary(r).WithContext(
        "feature scaler for op " + std::to_string(i)));
  }
  QCFE_RETURN_IF_ERROR(label_scaler_.LoadBinary(r).WithContext("label scaler"));
  for (size_t i = 0; i < units_.size(); ++i) {
    QCFE_RETURN_IF_ERROR(units_[i]->LoadBinary(r).WithContext(
        "neural unit for op " + std::to_string(i)));
  }
  QCFE_RETURN_IF_ERROR(optimizer_->LoadState(r).WithContext("optimizer"));
  return Status::OK();
}

namespace {
const EstimatorRegistration kQppNetRegistration{
    {"qppnet", "QPPNet", "qpp", /*learned=*/true,
     /*uniform_feature_width=*/false},
    [](const EstimatorContext& context) -> Result<std::unique_ptr<CostModel>> {
      if (context.featurizer == nullptr) {
        return Status::InvalidArgument("qppnet requires a featurizer");
      }
      return std::unique_ptr<CostModel>(std::make_unique<QppNet>(
          context.featurizer, QppNetConfig{}, context.seed));
    }};
}  // namespace

}  // namespace qcfe
