#include "workload/collector.h"

#include "sql/data_abstract.h"
#include "util/rng.h"

namespace qcfe {

namespace {

/// One collection task's outcome; slotted into the result set in task order.
struct CollectedQuery {
  Status status;
  LabeledQuery query;
};

}  // namespace

Result<LabeledQuerySet> QueryCollector::Collect(
    const std::vector<QueryTemplate>& templates, size_t count, uint64_t seed,
    ThreadPool* pool) {
  if (templates.empty()) {
    return Status::InvalidArgument("no templates to collect from");
  }
  if (envs_->empty()) {
    return Status::InvalidArgument("no environments configured");
  }
  Rng rng(seed);
  DataAbstract abstract(db_->catalog());

  // Query i draws from its own instantiation and noise streams, so tasks
  // are independent and the schedule cannot change any label.
  std::vector<CollectedQuery> collected =
      ParallelMap<CollectedQuery>(pool, count, [&](size_t i) {
        size_t ti = i % templates.size();
        const Environment& env =
            (*envs_)[(i / templates.size()) % envs_->size()];
        Rng inst_rng = rng.Split(2 * i);
        Rng noise_rng = rng.Split(2 * i + 1);
        CollectedQuery out;
        Result<QuerySpec> spec = templates[ti].Instantiate(abstract, &inst_rng);
        if (!spec.ok()) {
          out.status = spec.status();
          return out;
        }
        Result<QueryRunResult> run = db_->Run(*spec, env, &noise_rng);
        if (!run.ok()) {
          out.status = run.status();
          return out;
        }
        out.query.template_index = ti;
        out.query.env_id = env.id;
        out.query.total_ms = run->total_ms;
        out.query.plan = std::move(run->plan);
        return out;
      });

  LabeledQuerySet set;
  set.queries.reserve(count);
  for (auto& c : collected) {
    if (!c.status.ok()) return c.status;
    set.collection_ms += c.query.total_ms;
    set.queries.push_back(std::move(c.query));
  }
  return set;
}

Result<std::vector<LabeledQuerySet>> QueryCollector::RunSpecsGrid(
    const std::vector<QuerySpec>& specs,
    const std::vector<Environment>& envs, uint64_t seed, ThreadPool* pool) {
  size_t per_env = specs.size();
  std::vector<CollectedQuery> collected =
      ParallelMap<CollectedQuery>(pool, per_env * envs.size(), [&](size_t j) {
        size_t e = j / per_env;
        size_t i = j % per_env;
        const Environment& env = envs[e];
        // Keyed by env.id alone, so a slice does not depend on the other
        // environments of the grid.
        uint64_t env_seed =
            seed ^ (0x9E37ULL * (static_cast<uint64_t>(env.id) + 1));
        Rng noise_rng = Rng(env_seed).Split(i);
        CollectedQuery out;
        Result<QueryRunResult> run = db_->Run(specs[i], env, &noise_rng);
        if (!run.ok()) {
          out.status = run.status();
          return out;
        }
        out.query.template_index = i;
        out.query.env_id = env.id;
        out.query.total_ms = run->total_ms;
        out.query.plan = std::move(run->plan);
        return out;
      });

  std::vector<LabeledQuerySet> sets(envs.size());
  for (size_t e = 0; e < envs.size(); ++e) {
    sets[e].queries.reserve(per_env);
    for (size_t i = 0; i < per_env; ++i) {
      CollectedQuery& c = collected[e * per_env + i];
      if (!c.status.ok()) return c.status;
      sets[e].collection_ms += c.query.total_ms;
      sets[e].queries.push_back(std::move(c.query));
    }
  }
  return sets;
}

TrainTestSplit SplitIndices(size_t n, double train_fraction, uint64_t seed) {
  Rng rng(seed);
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = i;
  rng.Shuffle(&idx);
  TrainTestSplit split;
  size_t n_train = static_cast<size_t>(static_cast<double>(n) * train_fraction);
  split.train.assign(idx.begin(), idx.begin() + static_cast<ptrdiff_t>(n_train));
  split.test.assign(idx.begin() + static_cast<ptrdiff_t>(n_train), idx.end());
  return split;
}

}  // namespace qcfe
