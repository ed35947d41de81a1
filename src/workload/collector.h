#ifndef QCFE_WORKLOAD_COLLECTOR_H_
#define QCFE_WORKLOAD_COLLECTOR_H_

/// \file collector.h
/// Labeled-query collection: runs template instantiations across database
/// environments and keeps, per query, the executed plan (with per-operator
/// actuals and latencies) plus the total ground-truth latency. This is the
/// training/test corpus for every estimator and the operator observation
/// source for feature snapshots.
///
/// Collection is embarrassingly parallel by construction: every query i
/// derives its own RNG streams with Rng::Split(i) (instantiation and latency
/// noise), so queries are independent tasks and every entry point below is
/// bit-identical at any thread count — a ThreadPool only changes wall-clock,
/// never labels.

#include <memory>
#include <vector>

#include "engine/database.h"
#include "engine/knobs.h"
#include "sql/template.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace qcfe {

/// One labeled query.
struct LabeledQuery {
  size_t template_index = 0;  ///< which template produced it
  int env_id = 0;             ///< environment it ran under
  std::unique_ptr<PlanNode> plan;
  double total_ms = 0.0;
};

/// A labeled corpus plus bookkeeping about how expensive collection was.
struct LabeledQuerySet {
  std::vector<LabeledQuery> queries;
  /// Sum of simulated query latencies: what label collection would have cost
  /// in wall-clock on the real system (paper Table V compares this).
  double collection_ms = 0.0;
};

/// Collects labeled queries from a database + template set + environments.
class QueryCollector {
 public:
  /// The database and environments must outlive the collector.
  QueryCollector(Database* db, const std::vector<Environment>* envs)
      : db_(db), envs_(envs) {}

  /// Generates `count` labeled queries: templates round-robin, environments
  /// round-robin, placeholders sampled from the data abstract. Queries are
  /// executed across `pool` when given (null = serial, same results).
  Result<LabeledQuerySet> Collect(const std::vector<QueryTemplate>& templates,
                                  size_t count, uint64_t seed,
                                  ThreadPool* pool = nullptr);

  /// The snapshot-collection grid (FSO runs original-template
  /// instantiations, FST the simplified queries): every spec once under
  /// every environment, one LabeledQuerySet per environment (aligned with
  /// `envs`), query i of a set labelled with template_index i. Environment
  /// e draws its noise from the derived seed `seed ^ (0x9E37 * (env.id +
  /// 1))`, so a slice depends only on the specs, the seed and that
  /// environment: a one-environment grid reproduces it bit for bit.
  /// Flattening the (environment, spec) grid into one task list keeps all
  /// workers busy even when environments are fewer than threads.
  Result<std::vector<LabeledQuerySet>> RunSpecsGrid(
      const std::vector<QuerySpec>& specs,
      const std::vector<Environment>& envs, uint64_t seed,
      ThreadPool* pool = nullptr);

 private:
  Database* db_;
  const std::vector<Environment>* envs_;
};

/// Deterministic 80/20-style split of query indices.
struct TrainTestSplit {
  std::vector<size_t> train;
  std::vector<size_t> test;
};
TrainTestSplit SplitIndices(size_t n, double train_fraction, uint64_t seed);

}  // namespace qcfe

#endif  // QCFE_WORKLOAD_COLLECTOR_H_
