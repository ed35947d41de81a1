#include "models/mscn.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "models/registry.h"
#include "util/env_config.h"
#include "util/serialize.h"
#include "util/stats.h"

namespace qcfe {

namespace {
constexpr size_t kMaxTables = 24;   // join-table one-hot slots
constexpr size_t kMaxColumns = 48;  // predicate-column one-hot slots
constexpr size_t kNumPredOps = 9;
/// Model-section sub-format marker; bump on any layout change so an old
/// binary rejects a new artifact with a clear error instead of misparsing.
constexpr const char kMscnStateMarker[] = "mscn-state-v1";

void WriteSlotMap(const std::map<std::string, size_t>& slots, ByteWriter* w) {
  w->PutU64(slots.size());
  for (const auto& [name, slot] : slots) {
    w->PutString(name);
    w->PutU64(slot);
  }
}

/// Validates the saved vocabulary against the live catalog-derived one: a
/// mismatch means the artifact would one-hot encode joins/predicates into
/// different slots than training did, i.e. silently wrong predictions.
Status CheckSlotMap(const char* what, const std::map<std::string, size_t>& live,
                    ByteReader* r) {
  uint64_t count = 0;
  QCFE_RETURN_IF_ERROR(r->ReadCount(&count, sizeof(uint64_t)));
  if (count != live.size()) {
    return Status::FailedPrecondition(
        std::string(what) + " vocabulary size mismatch: saved " +
        std::to_string(count) + ", catalog has " +
        std::to_string(live.size()));
  }
  for (uint64_t i = 0; i < count; ++i) {
    std::string name;
    uint64_t slot = 0;
    QCFE_RETURN_IF_ERROR(r->ReadString(&name));
    QCFE_RETURN_IF_ERROR(r->ReadU64(&slot));
    auto it = live.find(name);
    if (it == live.end() || it->second != slot) {
      return Status::FailedPrecondition(
          std::string(what) + " vocabulary mismatch at \"" + name +
          "\": the artifact was fit against a different catalog");
    }
  }
  return Status::OK();
}
}  // namespace

Mscn::Mscn(const Catalog* catalog, const OperatorFeaturizer* featurizer,
           MscnConfig config, uint64_t seed)
    : catalog_(catalog),
      featurizer_(featurizer),
      config_(config),
      rng_(seed) {
  // Vocabularies (sorted order, same convention as OperatorEncoder).
  for (const auto& t : catalog_->TableNames()) {
    if (table_slots_.size() < kMaxTables) {
      table_slots_[t] = table_slots_.size();
    }
    const Table* table = catalog_->GetTable(t);
    for (const auto& col : table->schema().columns()) {
      std::string key = t + "." + col.name;
      if (column_slots_.size() < kMaxColumns) {
        column_slots_[key] = column_slots_.size();
      }
    }
  }
  size_t i = 0;
  for (auto& [k, v] : table_slots_) v = i++;
  i = 0;
  for (auto& [k, v] : column_slots_) v = i++;

  join_dim_ = 2 * kMaxTables;
  pred_dim_ = kMaxColumns + kNumPredOps + 1;
  op_dim_ = featurizer_->dim(OpType::kSeqScan);

  join_net_ = std::make_unique<Mlp>(
      std::vector<size_t>{join_dim_, config_.set_hidden, config_.set_hidden},
      Activation::kRelu, &rng_);
  pred_net_ = std::make_unique<Mlp>(
      std::vector<size_t>{pred_dim_, config_.set_hidden, config_.set_hidden},
      Activation::kRelu, &rng_);
  op_net_ = std::make_unique<Mlp>(
      std::vector<size_t>{op_dim_, config_.op_hidden, config_.set_hidden},
      Activation::kRelu, &rng_);
  final_net_ = std::make_unique<Mlp>(
      std::vector<size_t>{3 * config_.set_hidden, config_.final_hidden, 1},
      Activation::kRelu, &rng_);

  std::vector<Matrix*> params, grads;
  size_t module = 0;
  for (Mlp* net : {join_net_.get(), pred_net_.get(), op_net_.get(),
                   final_net_.get()}) {
    for (Matrix* p : net->Params()) params.push_back(p);
    const std::vector<Matrix*> net_grads = net->Grads();
    for (size_t k = 0; k < net_grads.size(); ++k) {
      grads.push_back(net_grads[k]);
      grad_slots_.emplace_back(module, k);
    }
    ++module;
  }
  auto adam = std::make_unique<AdamOptimizer>(params, grads, 1e-3);
  adam->set_clip_norm(5.0);
  optimizer_ = std::move(adam);
}

std::vector<double> Mscn::EncodeJoin(const JoinCondition& join) const {
  std::vector<double> x(join_dim_, 0.0);
  auto lt = table_slots_.find(join.left.table);
  if (lt != table_slots_.end()) x[lt->second] = 1.0;
  auto rt = table_slots_.find(join.right.table);
  if (rt != table_slots_.end()) x[kMaxTables + rt->second] = 1.0;
  return x;
}

std::vector<double> Mscn::EncodePredicate(const Predicate& pred) const {
  std::vector<double> x(pred_dim_, 0.0);
  auto ct = column_slots_.find(pred.column.ToString());
  if (ct != column_slots_.end()) x[ct->second] = 1.0;
  x[kMaxColumns + static_cast<size_t>(pred.op)] = 1.0;
  // Normalised literal value (first literal; strings hash into [0,1]).
  const ColumnStats* cs =
      catalog_->GetColumnStats(pred.column.table, pred.column.column);
  if (!pred.literals.empty() && cs != nullptr && cs->max > cs->min) {
    double v = ValueToDouble(pred.literals[0]);
    x[pred_dim_ - 1] = std::clamp((v - cs->min) / (cs->max - cs->min), 0.0, 1.0);
  }
  return x;
}

Mscn::EncodedQuery Mscn::EncodeQuery(const PlanNode& plan, int env_id,
                                     bool scale) const {
  EncodedQuery q;
  std::function<void(const PlanNode&, size_t)> walk = [&](const PlanNode& n,
                                                          size_t depth) {
    if (n.join.has_value()) q.joins.push_back(EncodeJoin(*n.join));
    for (const auto& f : n.filters) q.preds.push_back(EncodePredicate(f));
    q.ops.push_back(featurizer_->Encode(n, depth, env_id));
    for (const auto& c : n.children) walk(*c, depth + 1);
  };
  walk(plan, 0);
  if (q.joins.empty()) q.joins.emplace_back(join_dim_, 0.0);
  if (q.preds.empty()) q.preds.emplace_back(pred_dim_, 0.0);
  if (q.ops.empty()) q.ops.emplace_back(op_dim_, 0.0);

  if (scale && scalers_fitted_) {
    for (auto& r : q.joins) join_scaler_.TransformInPlace(&r);
    for (auto& r : q.preds) pred_scaler_.TransformInPlace(&r);
    for (auto& r : q.ops) op_scaler_.TransformInPlace(&r);
  }
  return q;
}

Mscn::Packed Mscn::Pack(const std::vector<const EncodedQuery*>& batch) const {
  Packed p;
  PackInto(batch, &p);
  return p;
}

void Mscn::PackInto(const std::vector<const EncodedQuery*>& batch,
                    Packed* p) const {
  size_t nj = 0, np = 0, no = 0;
  for (const auto* q : batch) {
    nj += q->joins.size();
    np += q->preds.size();
    no += q->ops.size();
  }
  // Every row is fully overwritten by SetRow below, so the element
  // matrices reshape without zeroing (and without reallocating at steady
  // chunk sizes).
  p->joins.ResetShapeUninitialized(nj, join_dim_);
  p->preds.ResetShapeUninitialized(np, pred_dim_);
  p->ops.ResetShapeUninitialized(no, op_dim_);
  p->join_offsets.assign(1, 0);
  p->pred_offsets.assign(1, 0);
  p->op_offsets.assign(1, 0);
  p->labels.clear();
  size_t ji = 0, pi = 0, oi = 0;
  for (const auto* q : batch) {
    for (const auto& r : q->joins) p->joins.SetRow(ji++, r);
    for (const auto& r : q->preds) p->preds.SetRow(pi++, r);
    for (const auto& r : q->ops) p->ops.SetRow(oi++, r);
    p->join_offsets.push_back(ji);
    p->pred_offsets.push_back(pi);
    p->op_offsets.push_back(oi);
    p->labels.push_back(q->label_scaled);
  }
}

namespace {

/// Mean-pools rows [offsets[q], offsets[q+1]) into row q of `out`
/// (reshaped in place; zero-seeded ascending-row sums, then one divide —
/// the historical SegmentMean arithmetic without the fresh matrix).
void SegmentMeanInto(const Matrix& rows, const std::vector<size_t>& offsets,
                     size_t hidden, Matrix* out) {
  size_t nq = offsets.size() - 1;
  out->ResetShape(nq, hidden);
  for (size_t q = 0; q < nq; ++q) {
    size_t count = offsets[q + 1] - offsets[q];
    if (count == 0) continue;
    for (size_t r = offsets[q]; r < offsets[q + 1]; ++r) {
      for (size_t c = 0; c < hidden; ++c) out->At(q, c) += rows.At(r, c);
    }
    for (size_t c = 0; c < hidden; ++c) {
      out->At(q, c) /= static_cast<double>(count);
    }
  }
}

Matrix SegmentMean(const Matrix& rows, const std::vector<size_t>& offsets,
                   size_t hidden) {
  Matrix out;
  SegmentMeanInto(rows, offsets, hidden, &out);
  return out;
}

/// Inverse of SegmentMean for gradients: the pooled gradient is columns
/// [col0, col0 + hidden) of `pooled_grad` (one module's slice of the
/// concat gradient).
void SegmentExpandInto(const Matrix& pooled_grad, size_t col0,
                       const std::vector<size_t>& offsets, size_t total_rows,
                       size_t hidden, Matrix* out) {
  out->ResetShape(total_rows, hidden);
  size_t nq = offsets.size() - 1;
  for (size_t q = 0; q < nq; ++q) {
    size_t count = offsets[q + 1] - offsets[q];
    if (count == 0) continue;
    double inv = 1.0 / static_cast<double>(count);
    for (size_t r = offsets[q]; r < offsets[q + 1]; ++r) {
      for (size_t c = 0; c < hidden; ++c) {
        out->At(r, c) = pooled_grad.At(q, col0 + c) * inv;
      }
    }
  }
}

void ConcatColsInto(const Matrix& a, const Matrix& b, const Matrix& c,
                    Matrix* out) {
  out->ResetShapeUninitialized(a.rows(), a.cols() + b.cols() + c.cols());
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t i = 0; i < a.cols(); ++i) out->At(r, i) = a.At(r, i);
    for (size_t i = 0; i < b.cols(); ++i) {
      out->At(r, a.cols() + i) = b.At(r, i);
    }
    for (size_t i = 0; i < c.cols(); ++i) {
      out->At(r, a.cols() + b.cols() + i) = c.At(r, i);
    }
  }
}

Matrix ConcatCols(const Matrix& a, const Matrix& b, const Matrix& c) {
  Matrix out;
  ConcatColsInto(a, b, c, &out);
  return out;
}

}  // namespace

const Matrix& Mscn::ForwardPacked(Shard* shard) const {
  size_t h = config_.set_hidden;
  const Packed& packed = shard->packed;
  NetTapes& tapes = shard->tapes;
  const Matrix& hj = join_net_->Forward(packed.joins, &tapes.join);
  const Matrix& hp = pred_net_->Forward(packed.preds, &tapes.pred);
  const Matrix& ho = op_net_->Forward(packed.ops, &tapes.op);
  SegmentMeanInto(hj, packed.join_offsets, h, &shard->pooled_join);
  SegmentMeanInto(hp, packed.pred_offsets, h, &shard->pooled_pred);
  SegmentMeanInto(ho, packed.op_offsets, h, &shard->pooled_op);
  ConcatColsInto(shard->pooled_join, shard->pooled_pred, shard->pooled_op,
                 &shard->concat);
  return final_net_->Forward(shard->concat, &tapes.final_net);
}

Matrix Mscn::PredictPacked(const Packed& packed) const {
  size_t h = config_.set_hidden;
  // One scratch serves all four nets sequentially: each module's rows are
  // pooled into a fresh matrix before the next module reuses the buffers.
  // This keeps large batched activations out of the allocator (big blocks
  // would be mmap'd and faulted in on every call).
  Mlp::Scratch scratch;
  Matrix pj = SegmentMean(join_net_->Predict(packed.joins, &scratch),
                          packed.join_offsets, h);
  Matrix pp = SegmentMean(pred_net_->Predict(packed.preds, &scratch),
                          packed.pred_offsets, h);
  Matrix po = SegmentMean(op_net_->Predict(packed.ops, &scratch),
                          packed.op_offsets, h);
  Matrix out = final_net_->Predict(ConcatCols(pj, pp, po), &scratch);
  return out;
}

void Mscn::BackwardPacked(Shard* shard) const {
  size_t h = config_.set_hidden;
  const Packed& packed = shard->packed;
  NetTapes& tapes = shard->tapes;
  const Matrix& grad_concat =
      final_net_->Backward(tapes.final_net.grads.back(), &tapes.final_net);
  // Each set module's output gradient is its slice of the concat gradient
  // expanded over the module's element rows, built in place as the
  // module tape's output gradient. Nobody reads a set module's input
  // gradient, so its first layer skips that product.
  SegmentExpandInto(grad_concat, 0, packed.join_offsets, packed.joins.rows(),
                    h, &tapes.join.grads.back());
  join_net_->Backward(tapes.join.grads.back(), &tapes.join,
                      /*input_grad=*/false);
  SegmentExpandInto(grad_concat, h, packed.pred_offsets, packed.preds.rows(),
                    h, &tapes.pred.grads.back());
  pred_net_->Backward(tapes.pred.grads.back(), &tapes.pred,
                      /*input_grad=*/false);
  SegmentExpandInto(grad_concat, 2 * h, packed.op_offsets, packed.ops.rows(),
                    h, &tapes.op.grads.back());
  op_net_->Backward(tapes.op.grads.back(), &tapes.op,
                    /*input_grad=*/false);
}

void Mscn::TrainShard(const std::vector<EncodedQuery>& encoded,
                      const std::vector<size_t>& order, size_t begin,
                      size_t end, size_t chunk_size, double inv_batch,
                      Shard* shard, double* chunk_losses) const {
  shard->refs.clear();
  shard->refs.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) {
    shard->refs.push_back(&encoded[order[i]]);
  }
  PackInto(shard->refs, &shard->packed);
  const Packed& packed = shard->packed;
  // Chunk boundaries as query rows (the final module's rows) and as each
  // set module's element rows: packing keeps every query's elements
  // contiguous, so a chunk is one row range in every module.
  const size_t nq = end - begin;
  shard->query_bounds.clear();
  shard->join_bounds.clear();
  shard->pred_bounds.clear();
  shard->op_bounds.clear();
  for (size_t q = 0;; q = std::min(q + chunk_size, nq)) {
    shard->query_bounds.push_back(q);
    shard->join_bounds.push_back(packed.join_offsets[q]);
    shard->pred_bounds.push_back(packed.pred_offsets[q]);
    shard->op_bounds.push_back(packed.op_offsets[q]);
    if (q == nq) break;
  }

  const Matrix& out = ForwardPacked(shard);
  Matrix& grad = shard->tapes.final_net.grads.back();
  grad.ResetShapeUninitialized(out.rows(), 1);
  for (size_t c = 0; c + 1 < shard->query_bounds.size(); ++c) {
    double loss = 0.0;
    for (size_t r = shard->query_bounds[c]; r < shard->query_bounds[c + 1];
         ++r) {
      double err = out.At(r, 0) - packed.labels[r];
      loss += err * err;
      grad.At(r, 0) = 2.0 * err * inv_batch;
    }
    chunk_losses[c] = loss;
  }
  BackwardPacked(shard);
}

void Mscn::AddShardGrad(const AdamOptimizer::GradBlock& block,
                        const Shard& shard, Matrix* grad) const {
  const auto [module, k] = grad_slots_[block.slot];
  const size_t rb = block.row_begin;
  const size_t re = block.row_end;
  switch (module) {
    case 0:
      join_net_->AddParamGrad(k, shard.tapes.join, shard.join_bounds, grad,
                              rb, re);
      return;
    case 1:
      pred_net_->AddParamGrad(k, shard.tapes.pred, shard.pred_bounds, grad,
                              rb, re);
      return;
    case 2:
      op_net_->AddParamGrad(k, shard.tapes.op, shard.op_bounds, grad, rb, re);
      return;
    default:
      final_net_->AddParamGrad(k, shard.tapes.final_net, shard.query_bounds,
                               grad, rb, re);
      return;
  }
}

std::vector<AdamOptimizer::GradBlock> Mscn::GradBlocks(
    const double* module_rows, size_t workers) {
  // Work of a slot ~ its elements x the rows its module sums per query.
  // Cutting the heavy slots into row blocks of about total / (2 workers)
  // keeps one large operator-module weight from holding up the phase. The
  // cut is only a schedule: every element's sum is computed the same way
  // in any block.
  std::vector<Matrix*> grads = Grads();
  std::vector<double> work(grads.size());
  double total = 0.0;
  for (size_t s = 0; s < grads.size(); ++s) {
    work[s] = static_cast<double>(grads[s]->rows() * grads[s]->cols()) *
              module_rows[grad_slots_[s].first];
    total += work[s];
  }
  const double target = total / (2.0 * static_cast<double>(workers));
  constexpr size_t kRowQuantum = 4;  // the kernels' register-panel height
  std::vector<AdamOptimizer::GradBlock> blocks;
  for (size_t s = 0; s < grads.size(); ++s) {
    const size_t rows = grads[s]->rows();
    size_t pieces = 1;
    if (target > 0.0 && work[s] > target) {
      pieces = static_cast<size_t>(std::ceil(work[s] / target));
    }
    size_t step = (rows + pieces - 1) / pieces;
    step = (step + kRowQuantum - 1) / kRowQuantum * kRowQuantum;
    for (size_t r = 0; r < rows; r += step) {
      blocks.push_back({s, r, std::min(r + step, rows)});
    }
  }
  return blocks;
}

void Mscn::FitScalers(const std::vector<EncodedQuery>& queries,
                      const std::vector<double>& labels_ms) {
  if (scalers_fitted_) return;
  auto fit = [](StandardScaler* sc, size_t dim,
                const std::vector<const std::vector<double>*>& rows) {
    Matrix m(std::max<size_t>(rows.size(), 1), dim);
    for (size_t r = 0; r < rows.size(); ++r) m.SetRow(r, *rows[r]);
    sc->Fit(m);
  };
  std::vector<const std::vector<double>*> jr, pr, orow;
  for (const auto& q : queries) {
    for (const auto& r : q.joins) jr.push_back(&r);
    for (const auto& r : q.preds) pr.push_back(&r);
    for (const auto& r : q.ops) orow.push_back(&r);
  }
  fit(&join_scaler_, join_dim_, jr);
  fit(&pred_scaler_, pred_dim_, pr);
  fit(&op_scaler_, op_dim_, orow);
  label_scaler_.Fit(labels_ms);
  scalers_fitted_ = true;
}

Status Mscn::Train(const std::vector<PlanSample>& train,
                   const TrainConfig& config, TrainStats* stats) {
  if (train.empty()) return Status::InvalidArgument("empty training set");
  if (featurizer_->dim(OpType::kSeqScan) != op_dim_) {
    return Status::FailedPrecondition("featurizer width changed under MSCN");
  }
  WallTimer timer;
  ThreadPool* pool = thread_pool();
  // First encode raw (for scaler fitting), then scale (per-query tasks,
  // gathered in sample order).
  std::vector<EncodedQuery> raw =
      ParallelMap<EncodedQuery>(pool, train.size(), [&](size_t i) {
        return EncodeQuery(*train[i].plan, train[i].env_id, /*scale=*/false);
      });
  std::vector<double> labels_ms;
  labels_ms.reserve(train.size());
  for (const auto& s : train) labels_ms.push_back(s.label_ms);
  FitScalers(raw, labels_ms);
  std::vector<EncodedQuery> encoded =
      ParallelMap<EncodedQuery>(pool, train.size(), [&](size_t i) {
        EncodedQuery q =
            EncodeQuery(*train[i].plan, train[i].env_id, /*scale=*/true);
        q.label_scaled = label_scaler_.TransformOne(labels_ms[i]);
        return q;
      });

  optimizer_->set_lr(config.learning_rate);
  Rng train_rng(config.seed);
  std::vector<size_t> order(encoded.size());
  // Chunk autotuning (chunk_size == 0). The chunk width decides where each
  // batch's gradient sums are cut, so it is part of the trained bits and
  // keeps the derivation it had when every chunk owned a gradient sink:
  // per-chunk overhead is the gradient elements of all four modules, zeroed
  // and merged; per-query compute is the query's set rows x module
  // parameter elements plus one final-module pass. Exact element counts
  // over the encoded set — deterministic, so the partition stays
  // thread-count- and run-independent.
  double merge_elems = 0.0;
  double query_elems = 0.0;
  // Mean rows per query in each module (join, pred, op, final).
  double module_rows[4] = {0.0, 0.0, 0.0, 1.0};
  {
    auto net_elems = [](Mlp* net) {
      double elems = 0.0;
      for (const Matrix* g : net->Grads()) elems += g->size();
      return elems;
    };
    const double je = net_elems(join_net_.get());
    const double pe = net_elems(pred_net_.get());
    const double oe = net_elems(op_net_.get());
    const double fe = net_elems(final_net_.get());
    merge_elems = 2.0 * (je + pe + oe + fe);
    for (const auto& q : encoded) {
      query_elems += kTrainFlopsPerParam *
                     (static_cast<double>(q.joins.size()) * je +
                      static_cast<double>(q.preds.size()) * pe +
                      static_cast<double>(q.ops.size()) * oe + fe);
      module_rows[0] += static_cast<double>(q.joins.size());
      module_rows[1] += static_cast<double>(q.preds.size());
      module_rows[2] += static_cast<double>(q.ops.size());
    }
    query_elems /= static_cast<double>(encoded.size());
    for (size_t m = 0; m < 3; ++m) {
      module_rows[m] /= static_cast<double>(encoded.size());
    }
  }
  const size_t chunk_size =
      ResolveTrainChunkSize(config, merge_elems, query_elems);
  // The chunk partition depends only on batch_size and the resolved
  // chunk_size, never on the worker count. Each batch runs as at most one
  // chunk-aligned shard per worker: a shard packs, forwards and
  // backpropagates its queries once (module forwards and input gradients
  // are row-wise and pooling is per query, so shard boundaries never
  // change a value). The parameter gradients are then summed per chunk
  // from the shards' tapes, one zero-seeded chain per chunk added in chunk
  // order (Mlp::AddParamGrad), which keeps the fitted model bit-identical
  // at any thread count.
  const size_t workers = pool == nullptr ? 1 : pool->num_workers();
  const std::vector<AdamOptimizer::GradBlock> grad_blocks =
      GradBlocks(module_rows, workers);
  std::vector<Shard> shards;
  std::vector<double> chunk_losses;
  std::vector<double> slot_sq;

  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    // Per-epoch order from an epoch-keyed Split stream: epoch e's shuffle
    // depends only on (seed, e), not on thread count or prior epochs.
    Rng epoch_rng = train_rng.Split(static_cast<uint64_t>(epoch));
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    epoch_rng.Shuffle(&order);

    double epoch_loss = 0.0;
    for (size_t start = 0; start < order.size(); start += config.batch_size) {
      size_t end = std::min(start + config.batch_size, order.size());
      double inv = 1.0 / static_cast<double>(end - start);
      size_t num_chunks = (end - start + chunk_size - 1) / chunk_size;
      // Chunk range [first, second) of each shard.
      const std::vector<std::pair<size_t, size_t>> shard_chunks =
          PartitionBlocks(num_chunks, workers);
      if (shards.size() < shard_chunks.size()) {
        shards.resize(shard_chunks.size());
      }
      chunk_losses.assign(num_chunks, 0.0);
      ParallelFor(pool, shard_chunks.size(), [&](size_t b) {
        const auto [first, last] = shard_chunks[b];
        const size_t qs = start + first * chunk_size;
        const size_t qe = std::min(start + last * chunk_size, end);
        TrainShard(encoded, order, qs, qe, chunk_size, inv, &shards[b],
                   &chunk_losses[first]);
      });
      // Fixed-order reductions: losses in chunk order, and each gradient
      // slot over the shards (and their chunks) in order.
      double batch_loss = 0.0;
      for (size_t c = 0; c < num_chunks; ++c) {
        batch_loss += chunk_losses[c];
        epoch_loss += chunk_losses[c];
      }
      optimizer_->SetGrads(
          grad_blocks,
          [&](const AdamOptimizer::GradBlock& block, Matrix* grad) {
            for (size_t b = 0; b < shard_chunks.size(); ++b) {
              AddShardGrad(block, shards[b], grad);
            }
          },
          pool, &slot_sq);
      QCFE_RETURN_IF_ERROR(StepBatch(optimizer_.get(), batch_loss, slot_sq,
                                     epoch, start / config.batch_size, pool));
    }
    if (stats != nullptr) {
      stats->loss_curve.push_back(epoch_loss /
                                  static_cast<double>(encoded.size()));
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

std::vector<Matrix*> Mscn::Params() {
  std::vector<Matrix*> out;
  for (Mlp* net : {join_net_.get(), pred_net_.get(), op_net_.get(),
                   final_net_.get()}) {
    for (Matrix* p : net->Params()) out.push_back(p);
  }
  return out;
}

std::vector<Matrix*> Mscn::Grads() {
  std::vector<Matrix*> out;
  for (Mlp* net : {join_net_.get(), pred_net_.get(), op_net_.get(),
                   final_net_.get()}) {
    for (Matrix* g : net->Grads()) out.push_back(g);
  }
  return out;
}

Result<double> Mscn::TrainingLoss(const std::vector<PlanSample>& samples,
                                  bool accumulate_gradients) {
  if (samples.empty()) return Status::InvalidArgument("empty sample set");
  if (!scalers_fitted_) {
    std::vector<EncodedQuery> raw;
    std::vector<double> labels_ms;
    raw.reserve(samples.size());
    for (const auto& s : samples) {
      raw.push_back(EncodeQuery(*s.plan, s.env_id, /*scale=*/false));
      labels_ms.push_back(s.label_ms);
    }
    FitScalers(raw, labels_ms);
  }
  std::vector<EncodedQuery> encoded;
  std::vector<size_t> order;
  encoded.reserve(samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    encoded.push_back(
        EncodeQuery(*samples[i].plan, samples[i].env_id, /*scale=*/true));
    encoded.back().label_scaled =
        label_scaler_.TransformOne(samples[i].label_ms);
    order.push_back(i);
  }
  // The training path with the whole sample set as one shard of one
  // chunk.
  double inv = 1.0 / static_cast<double>(samples.size());
  Shard shard;
  double loss = 0.0;
  TrainShard(encoded, order, 0, encoded.size(), encoded.size(), inv, &shard,
             &loss);
  if (accumulate_gradients) {
    std::vector<Matrix*> grads = Grads();
    for (size_t slot = 0; slot < grads.size(); ++slot) {
      AddShardGrad({slot, 0, grads[slot]->rows()}, shard, grads[slot]);
    }
  }
  return loss * inv;
}

void Mscn::PredictShard(const std::vector<PlanSample>& requests, size_t begin,
                        size_t end, std::vector<BatchPrediction>* out) const {
  if (!scalers_fitted_) {
    for (size_t s = begin; s < end; ++s) {
      (*out)[s].status = Status::FailedPrecondition("MSCN is untrained");
    }
    return;
  }
  std::vector<EncodedQuery> encoded;
  encoded.reserve(end - begin);
  for (size_t s = begin; s < end; ++s) {
    encoded.push_back(
        EncodeQuery(*requests[s].plan, requests[s].env_id, /*scale=*/true));
  }
  std::vector<const EncodedQuery*> refs;
  refs.reserve(encoded.size());
  for (const auto& q : encoded) refs.push_back(&q);
  Packed packed = Pack(refs);
  Matrix y = PredictPacked(packed);
  for (size_t r = 0; r < y.rows(); ++r) {
    (*out)[begin + r].ms = label_scaler_.InverseTransformOne(
        label_scaler_.ClampTransformed(y.At(r, 0)));
  }
}

Result<Mlp> Mscn::OperatorView(OpType /*op*/,
                               const std::vector<PlanSample>& context) const {
  if (!scalers_fitted_) return Status::FailedPrecondition("MSCN is untrained");
  size_t h = config_.set_hidden;

  // Average join/predicate pools over the context set; they become the fixed
  // bias of the concat embedding.
  Matrix pj_ctx(1, h), pp_ctx(1, h);
  size_t count = 0;
  for (const auto& s : context) {
    EncodedQuery q = EncodeQuery(*s.plan, s.env_id, /*scale=*/true);
    Packed packed = Pack({&q});
    Matrix hj = join_net_->Predict(packed.joins);
    Matrix hp = pred_net_->Predict(packed.preds);
    Matrix pj = SegmentMean(hj, packed.join_offsets, h);
    Matrix pp = SegmentMean(hp, packed.pred_offsets, h);
    pj_ctx.Add(pj);
    pp_ctx.Add(pp);
    ++count;
  }
  if (count > 0) {
    pj_ctx.Scale(1.0 / static_cast<double>(count));
    pp_ctx.Scale(1.0 / static_cast<double>(count));
  }

  // View = Scale(raw op feats) ∘ op_net ∘ Concat(ctx_j, ctx_p, ·) ∘ final.
  Mlp view;
  auto scale_embed = Mlp::MakeZeroLinear(op_dim_, op_dim_);
  for (size_t i = 0; i < op_dim_; ++i) {
    double std = op_scaler_.fitted() ? op_scaler_.stddev()[i] : 1.0;
    double mean = op_scaler_.fitted() ? op_scaler_.mean()[i] : 0.0;
    scale_embed->weights().At(i, i) = 1.0 / std;
    scale_embed->bias().At(0, i) = -mean / std;
  }
  view.AppendLayer(std::move(scale_embed));
  for (const auto& layer : op_net_->layers()) {
    view.AppendLayer(Mlp::CloneLayer(*layer));
  }
  auto concat = Mlp::MakeZeroLinear(h, 3 * h);
  for (size_t i = 0; i < h; ++i) concat->weights().At(i, 2 * h + i) = 1.0;
  for (size_t i = 0; i < h; ++i) {
    concat->bias().At(0, i) = pj_ctx.At(0, i);
    concat->bias().At(0, h + i) = pp_ctx.At(0, i);
  }
  view.AppendLayer(std::move(concat));
  for (const auto& layer : final_net_->layers()) {
    view.AppendLayer(Mlp::CloneLayer(*layer));
  }
  return view;
}

Status Mscn::SaveState(ByteWriter* w) const {
  w->PutString(kMscnStateMarker);
  w->PutU64(config_.set_hidden);
  w->PutU64(config_.op_hidden);
  w->PutU64(config_.final_hidden);
  w->PutU64(join_dim_);
  w->PutU64(pred_dim_);
  w->PutU64(op_dim_);
  WriteSlotMap(table_slots_, w);
  WriteSlotMap(column_slots_, w);
  w->PutU64(rng_.state());
  w->PutBool(scalers_fitted_);
  join_scaler_.SaveBinary(w);
  pred_scaler_.SaveBinary(w);
  op_scaler_.SaveBinary(w);
  label_scaler_.SaveBinary(w);
  join_net_->SaveBinary(w);
  pred_net_->SaveBinary(w);
  op_net_->SaveBinary(w);
  final_net_->SaveBinary(w);
  optimizer_->SaveState(w);
  return Status::OK();
}

Status Mscn::LoadState(ByteReader* r) {
  std::string marker;
  QCFE_RETURN_IF_ERROR(r->ReadString(&marker));
  if (marker != kMscnStateMarker) {
    return Status::FailedPrecondition("model state is not " +
                                      std::string(kMscnStateMarker) +
                                      " (found \"" + marker + "\")");
  }
  uint64_t set_hidden = 0, op_hidden = 0, final_hidden = 0;
  QCFE_RETURN_IF_ERROR(r->ReadU64(&set_hidden));
  QCFE_RETURN_IF_ERROR(r->ReadU64(&op_hidden));
  QCFE_RETURN_IF_ERROR(r->ReadU64(&final_hidden));
  if (set_hidden != config_.set_hidden || op_hidden != config_.op_hidden ||
      final_hidden != config_.final_hidden) {
    return Status::FailedPrecondition(
        "saved mscn config (set_hidden=" + std::to_string(set_hidden) +
        ", op_hidden=" + std::to_string(op_hidden) +
        ", final_hidden=" + std::to_string(final_hidden) +
        ") does not match this model");
  }
  uint64_t join_dim = 0, pred_dim = 0, op_dim = 0;
  QCFE_RETURN_IF_ERROR(r->ReadU64(&join_dim));
  QCFE_RETURN_IF_ERROR(r->ReadU64(&pred_dim));
  QCFE_RETURN_IF_ERROR(r->ReadU64(&op_dim));
  if (join_dim != join_dim_ || pred_dim != pred_dim_ || op_dim != op_dim_) {
    return Status::FailedPrecondition(
        "saved mscn element dims (join=" + std::to_string(join_dim) +
        ", pred=" + std::to_string(pred_dim) +
        ", op=" + std::to_string(op_dim) + ") do not match this model (join=" +
        std::to_string(join_dim_) + ", pred=" + std::to_string(pred_dim_) +
        ", op=" + std::to_string(op_dim_) + ")");
  }
  QCFE_RETURN_IF_ERROR(CheckSlotMap("join-table", table_slots_, r));
  QCFE_RETURN_IF_ERROR(CheckSlotMap("predicate-column", column_slots_, r));
  uint64_t rng_state = 0;
  QCFE_RETURN_IF_ERROR(r->ReadU64(&rng_state));
  rng_.set_state(rng_state);
  QCFE_RETURN_IF_ERROR(r->ReadBool(&scalers_fitted_));
  QCFE_RETURN_IF_ERROR(join_scaler_.LoadBinary(r).WithContext("join scaler"));
  QCFE_RETURN_IF_ERROR(pred_scaler_.LoadBinary(r).WithContext("pred scaler"));
  QCFE_RETURN_IF_ERROR(op_scaler_.LoadBinary(r).WithContext("op scaler"));
  QCFE_RETURN_IF_ERROR(label_scaler_.LoadBinary(r).WithContext("label scaler"));
  QCFE_RETURN_IF_ERROR(join_net_->LoadBinary(r).WithContext("join net"));
  QCFE_RETURN_IF_ERROR(pred_net_->LoadBinary(r).WithContext("pred net"));
  QCFE_RETURN_IF_ERROR(op_net_->LoadBinary(r).WithContext("op net"));
  QCFE_RETURN_IF_ERROR(final_net_->LoadBinary(r).WithContext("final net"));
  QCFE_RETURN_IF_ERROR(optimizer_->LoadState(r).WithContext("optimizer"));
  return Status::OK();
}

namespace {
const EstimatorRegistration kMscnRegistration{
    {"mscn", "MSCN", "mscn", /*learned=*/true, /*uniform_feature_width=*/true},
    [](const EstimatorContext& context) -> Result<std::unique_ptr<CostModel>> {
      if (context.catalog == nullptr || context.featurizer == nullptr) {
        return Status::InvalidArgument(
            "mscn requires a catalog and a featurizer");
      }
      return std::unique_ptr<CostModel>(std::make_unique<Mscn>(
          context.catalog, context.featurizer, MscnConfig{}, context.seed));
    }};
}  // namespace

}  // namespace qcfe
