#include "models/cost_model.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>

#include "nn/optimizer.h"
#include "util/stats.h"

namespace qcfe {

BatchRequestDedup::BatchRequestDedup(const std::vector<PlanSample>& batch) {
  std::map<std::pair<const PlanNode*, int>, size_t> seen;
  slot.reserve(batch.size());
  for (const PlanSample& s : batch) {
    if (s.plan == nullptr) {
      slot.push_back(kNullPlan);
      continue;
    }
    auto [it, inserted] =
        seen.emplace(std::make_pair(s.plan, s.env_id), unique.size());
    if (inserted) unique.push_back(s);
    slot.push_back(it->second);
  }
}

Status CostModel::ValidatePlan(const PlanNode& plan) {
  // Pre-order with an explicit stack: node numbers match PlanNode::Visit,
  // and no plan depth can exhaust the call stack.
  std::vector<const PlanNode*> stack = {&plan};
  for (size_t index = 0; !stack.empty(); ++index) {
    const PlanNode& node = *stack.back();
    stack.pop_back();
    auto invalid = [index](const std::string& what, int value) {
      return Status::InvalidArgument("plan node " + std::to_string(index) +
                                     ": " + what + " " +
                                     std::to_string(value) +
                                     " is out of range");
    };
    if (static_cast<size_t>(node.op) >= kNumOpTypes) {
      return invalid("operator type", static_cast<int>(node.op));
    }
    for (const Predicate& f : node.filters) {
      if (static_cast<size_t>(f.op) >
          static_cast<size_t>(CompareOp::kBetween)) {
        return invalid("filter comparison", static_cast<int>(f.op));
      }
    }
    for (const Aggregate& a : node.aggregates) {
      if (static_cast<size_t>(a.kind) >
          static_cast<size_t>(Aggregate::Kind::kMax)) {
        return invalid("aggregate kind", static_cast<int>(a.kind));
      }
    }
    for (size_t c = node.children.size(); c > 0; --c) {
      if (node.children[c - 1] == nullptr) {
        return Status::InvalidArgument("plan node " + std::to_string(index) +
                                       ": child " + std::to_string(c - 1) +
                                       " is null");
      }
      stack.push_back(node.children[c - 1].get());
    }
  }
  return Status::OK();
}

void CostModel::ServeShard(const std::vector<PlanSample>& requests,
                           size_t begin, size_t end,
                           std::vector<BatchPrediction>* out) const {
  // PredictShard results do not depend on which requests share a range, so
  // serving the valid runs between rejected requests keeps every bit.
  size_t run = begin;
  for (size_t i = begin; i < end; ++i) {
    Status valid = ValidatePlan(*requests[i].plan);
    if (valid.ok()) continue;
    if (run < i) PredictShard(requests, run, i, out);
    (*out)[i] = {std::move(valid), 0.0};
    run = i + 1;
  }
  if (run < end) PredictShard(requests, run, end, out);
  for (size_t i = begin; i < end; ++i) {
    BatchPrediction& p = (*out)[i];
    if (p.status.ok() && !std::isfinite(p.ms)) {
      p.status = Status::NumericError("prediction is not finite (" +
                                      std::to_string(p.ms) + " ms)");
    }
  }
}

std::vector<CostModel::BatchPrediction> CostModel::PredictBatchEach(
    const std::vector<PlanSample>& batch, ThreadPool* pool) const {
  // One PredictShard per contiguous block of distinct requests, each
  // writing only its own slots, then expanded back to batch order.
  BatchRequestDedup dedup(batch);
  std::vector<BatchPrediction> unique(dedup.unique.size());
  std::vector<std::pair<size_t, size_t>> shards = PartitionBlocks(
      unique.size(), pool == nullptr ? 1 : pool->num_workers());
  ParallelFor(pool, shards.size(), [&](size_t b) {
    ServeShard(dedup.unique, shards[b].first, shards[b].second, &unique);
  });
  std::vector<BatchPrediction> out;
  out.reserve(batch.size());
  for (size_t s : dedup.slot) {
    if (s == BatchRequestDedup::kNullPlan) {
      out.push_back(
          {Status::InvalidArgument("null plan in prediction batch"), 0.0});
    } else {
      out.push_back(unique[s]);
    }
  }
  return out;
}

Result<std::vector<double>> CostModel::PredictBatchMs(
    const std::vector<PlanSample>& batch, ThreadPool* pool) const {
  std::vector<BatchPrediction> each = PredictBatchEach(batch, pool);
  std::vector<double> out;
  out.reserve(each.size());
  for (const BatchPrediction& p : each) {
    if (!p.status.ok()) return p.status;
    out.push_back(p.ms);
  }
  return out;
}

Result<double> CostModel::PredictMs(const PlanNode& plan, int env_id) const {
  // One non-null request has nothing to dedup or shard: PredictBatchEach
  // would run exactly this one-slot ServeShard.
  const std::vector<PlanSample> request = {{&plan, env_id, 0.0}};
  std::vector<BatchPrediction> out(1);
  ServeShard(request, 0, 1, &out);
  if (!out[0].status.ok()) return out[0].status;
  return out[0].ms;
}

double SubtreeLatencyMs(const PlanNode& node) { return node.TotalActualMs(); }

size_t ResolveTrainChunkSize(const TrainConfig& config,
                             double merge_cost_elems,
                             double per_sample_cost_elems) {
  if (config.chunk_size > 0) return config.chunk_size;
  const size_t batch = std::max<size_t>(1, config.batch_size);
  // Keep per-chunk overhead under 1/16 of the chunk's backprop work:
  // chunk >= merge / (target * per_sample). Degenerate inputs (no measured
  // compute) fall back to single-sample chunks.
  constexpr double kTargetOverheadFraction = 1.0 / 16.0;
  if (per_sample_cost_elems <= 0.0 || merge_cost_elems <= 0.0) return 1;
  double width = std::ceil(merge_cost_elems /
                           (kTargetOverheadFraction * per_sample_cost_elems));
  if (width < 1.0) width = 1.0;
  if (width > static_cast<double>(batch)) width = static_cast<double>(batch);
  return static_cast<size_t>(width);
}

Status StepBatch(AdamOptimizer* optimizer, double batch_loss,
                 const std::vector<double>& slot_sq, int epoch, size_t batch,
                 ThreadPool* pool) {
  const std::string where = "training epoch " + std::to_string(epoch) +
                            ", batch " + std::to_string(batch);
  if (!std::isfinite(batch_loss)) {
    return Status::NumericError(where +
                                ": batch loss is not finite; no step applied");
  }
  return optimizer->Step(pool, slot_sq).WithContext(where);
}

double EvalMeanQError(const CostModel& model,
                      const std::vector<PlanSample>& eval_set,
                      ThreadPool* pool) {
  std::vector<CostModel::BatchPrediction> each =
      model.PredictBatchEach(eval_set, pool);
  std::vector<double> actual, predicted;
  actual.reserve(eval_set.size());
  predicted.reserve(eval_set.size());
  for (size_t i = 0; i < eval_set.size(); ++i) {
    if (!each[i].status.ok()) continue;
    actual.push_back(eval_set[i].label_ms);
    predicted.push_back(each[i].ms);
  }
  return Mean(QErrors(actual, predicted));
}

}  // namespace qcfe
