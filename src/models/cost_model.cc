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
    auto [it, inserted] =
        seen.emplace(std::make_pair(s.plan, s.env_id), unique.size());
    if (inserted) unique.push_back(s);
    slot.push_back(it->second);
  }
}

std::vector<double> BatchRequestDedup::Expand(
    const std::vector<double>& unique_results) const {
  std::vector<double> out;
  out.reserve(slot.size());
  for (size_t s : slot) out.push_back(unique_results[s]);
  return out;
}

namespace {

/// Deduped per-request prediction loop shared by the base PredictBatchMs
/// and the PredictBatchEach fallback: one PredictMs task per distinct
/// request across the pool (each writing only its own slot, so results
/// match the serial loop exactly), expanded back to batch order. Requests
/// must have non-null plans.
std::vector<CostModel::BatchPrediction> PredictEachByRequest(
    const CostModel& model, const std::vector<PlanSample>& batch,
    ThreadPool* pool) {
  BatchRequestDedup dedup(batch);
  std::vector<CostModel::BatchPrediction> unique_results =
      ParallelMap<CostModel::BatchPrediction>(
          pool, dedup.unique.size(), [&](size_t u) {
            CostModel::BatchPrediction p;
            Result<double> r =
                model.PredictMs(*dedup.unique[u].plan, dedup.unique[u].env_id);
            if (r.ok()) {
              p.ms = *r;
            } else {
              p.status = r.status();
            }
            return p;
          });
  std::vector<CostModel::BatchPrediction> out;
  out.reserve(dedup.slot.size());
  for (size_t s : dedup.slot) out.push_back(unique_results[s]);
  return out;
}

}  // namespace

Result<std::vector<double>> CostModel::PredictBatchMs(
    const std::vector<PlanSample>& batch, ThreadPool* pool) const {
  for (const PlanSample& s : batch) {
    if (s.plan == nullptr) {
      return Status::InvalidArgument("null plan in prediction batch");
    }
  }
  // Fallback batched path (all-or-nothing contract): the shared per-request
  // loop, collapsed to the first error in batch order — which is also the
  // first failing distinct request, since unique order is first-appearance
  // order.
  std::vector<BatchPrediction> each = PredictEachByRequest(*this, batch, pool);
  std::vector<double> out;
  out.reserve(each.size());
  for (const BatchPrediction& p : each) {
    if (!p.status.ok()) return p.status;
    out.push_back(p.ms);
  }
  return out;
}

std::vector<CostModel::BatchPrediction> CostModel::PredictBatchEach(
    const std::vector<PlanSample>& batch, ThreadPool* pool) const {
  std::vector<BatchPrediction> out(batch.size());
  // Null plans fail individually up front; the all-or-nothing batched path
  // below then only ever sees servable-looking requests.
  std::vector<PlanSample> valid;
  std::vector<size_t> valid_pos;
  valid.reserve(batch.size());
  valid_pos.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].plan == nullptr) {
      out[i].status = Status::InvalidArgument("null plan in prediction batch");
    } else {
      valid.push_back(batch[i]);
      valid_pos.push_back(i);
    }
  }
  if (valid.empty()) return out;

  Result<std::vector<double>> whole = PredictBatchMs(valid, pool);
  if (whole.ok()) {
    for (size_t j = 0; j < valid_pos.size(); ++j) {
      out[valid_pos[j]].ms = (*whole)[j];
    }
    return out;
  }

  // Some request poisoned the whole batch. Retry per distinct request so
  // the error reaches only its own slot(s); per-request results are
  // bit-identical to the batched forward (parity contract), so the healthy
  // requests lose nothing by taking this path. For estimators without a
  // batched override the failed attempt above already ran this loop once —
  // accepted cost: it is paid only on batches that contain a bad request,
  // and keeping the fast path a single virtual PredictBatchMs call is what
  // lets the healthy path match the all-or-nothing API's throughput.
  std::vector<BatchPrediction> fallback =
      PredictEachByRequest(*this, valid, pool);
  for (size_t j = 0; j < valid_pos.size(); ++j) {
    out[valid_pos[j]] = fallback[j];
  }
  return out;
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
  std::vector<double> actual, predicted;
  Result<std::vector<double>> batch = model.PredictBatchMs(eval_set, pool);
  if (batch.ok()) {
    actual.reserve(eval_set.size());
    for (const auto& s : eval_set) actual.push_back(s.label_ms);
    predicted = std::move(batch.value());
  } else {
    // Whole-batch failure: fall back to the per-plan loop, skipping
    // individually failing samples (historical eval semantics).
    for (const auto& s : eval_set) {
      Result<double> p = model.PredictMs(*s.plan, s.env_id);
      if (!p.ok()) continue;
      actual.push_back(s.label_ms);
      predicted.push_back(*p);
    }
  }
  return Mean(QErrors(actual, predicted));
}

}  // namespace qcfe
