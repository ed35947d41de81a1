#include "engine/database.h"

#include <cmath>
#include <limits>

#include "util/rng.h"

namespace qcfe {

Result<std::unique_ptr<PlanNode>> Database::Plan(const QuerySpec& query,
                                                 const Knobs& knobs) const {
  Planner planner(&catalog_, knobs);
  return planner.Plan(query);
}

std::string Database::CacheKey(const PlanNode& plan, const Knobs& knobs) {
  // Bucket work_mem by powers of two: spill decisions flip at thresholds, so
  // nearby values almost always behave identically.
  int bucket = static_cast<int>(std::log2(std::max(knobs.work_mem_kb, 1.0)));
  return plan.Fingerprint() + "|wm" + std::to_string(bucket);
}

Result<QueryRunResult> Database::Run(const QuerySpec& query,
                                     const Environment& env, Rng* noise_rng) {
  Result<std::unique_ptr<PlanNode>> planned = Plan(query, env.knobs);
  if (!planned.ok()) return planned.status();
  std::unique_ptr<PlanNode> plan = std::move(planned.value());

  QueryRunResult result;
  std::string key = CacheKey(*plan, env.knobs);
  size_t result_rows = 0;
  std::shared_ptr<const std::vector<NodeExecRecord>> cached;
  {
    ReaderMutexLock lock(&cache_mu_);
    auto it = exec_cache_.find(key);
    // Copying the shared_ptr under the lock keeps the records alive through
    // the replay even if another thread clears the cache meanwhile.
    if (it != exec_cache_.end()) cached = it->second;
  }
  if (cached != nullptr) {
    // Replay counts into the plan (pre-order alignment).
    size_t i = 0;
    plan->Visit([&](PlanNode* node) {
      const NodeExecRecord& rec = (*cached)[i++];
      node->actual_rows = rec.actual_rows;
      node->input_card = rec.input_card;
      node->input_card2 = rec.input_card2;
      node->work = rec.work;
    });
    result_rows = static_cast<size_t>(plan->actual_rows);
  } else {
    // Execute outside the lock. Two threads racing on the same miss both
    // execute and compute identical records (execution is deterministic);
    // the first insert wins and the duplicate is discarded.
    Executor executor(&catalog_, env.knobs);
    Result<RowIdRelation> rel = executor.Execute(plan.get());
    if (!rel.ok()) return rel.status();
    result_rows = rel.value().NumRows();
    auto records = std::make_shared<std::vector<NodeExecRecord>>();
    plan->Visit([&](PlanNode* node) {
      records->push_back(NodeExecRecord{node->actual_rows, node->input_card,
                                        node->input_card2, node->work});
    });
    WriterMutexLock lock(&cache_mu_);
    exec_cache_.emplace(key, std::move(records));
  }

  if (query.limit.has_value()) {
    result_rows = std::min(result_rows, *query.limit);
  }

  CostSimulator sim(env, catalog_.TotalSizeMb());
  result.total_ms = sim.PricePlan(plan.get(), noise_rng);
  result.result_rows = result_rows;
  result.plan = std::move(plan);
  return result;
}

Result<Relation> Database::ExecuteForResult(const QuerySpec& query,
                                            const Environment& env,
                                            Rng* noise_rng,
                                            QueryRunResult* run) {
  Result<std::unique_ptr<PlanNode>> planned = Plan(query, env.knobs);
  if (!planned.ok()) return planned.status();
  std::unique_ptr<PlanNode> plan = std::move(planned.value());

  Executor executor(&catalog_, env.knobs);
  Result<RowIdRelation> rel = executor.Execute(plan.get());
  if (!rel.ok()) return rel.status();

  // Values are built once, here, and only for the rows LIMIT keeps.
  Relation out = rel.value().Materialize(
      query.limit.value_or(std::numeric_limits<size_t>::max()));

  CostSimulator sim(env, catalog_.TotalSizeMb());
  double total = sim.PricePlan(plan.get(), noise_rng);
  if (run != nullptr) {
    run->total_ms = total;
    run->result_rows = out.rows.size();
    run->plan = std::move(plan);
  }
  return out;
}

}  // namespace qcfe
