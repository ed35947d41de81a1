#ifndef QCFE_ENGINE_DATABASE_H_
#define QCFE_ENGINE_DATABASE_H_

/// \file database.h
/// Facade tying catalog, planner, executor and cost simulator together:
/// the "PostgreSQL instance" of this project. Also owns the execution cache
/// that makes collecting labels across 20 environments affordable — plans
/// with identical fingerprints (and the same spill-relevant work_mem bucket)
/// perform identical work, so counts are executed once and re-priced per
/// environment.

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/catalog.h"
#include "engine/cost_simulator.h"
#include "engine/executor.h"
#include "engine/knobs.h"
#include "engine/plan.h"
#include "engine/planner.h"
#include "engine/query.h"
#include "util/status.h"
#include "util/sync.h"

namespace qcfe {

class Rng;

/// The result of running one query under one environment.
struct QueryRunResult {
  std::unique_ptr<PlanNode> plan;  ///< actuals + per-operator latencies filled
  double total_ms = 0.0;           ///< ground-truth query latency
  size_t result_rows = 0;          ///< rows returned (after LIMIT)
};

/// An in-memory database instance.
class Database {
 public:
  explicit Database(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  Catalog* catalog() { return &catalog_; }
  const Catalog* catalog() const { return &catalog_; }

  /// ANALYZE all tables (must run after loading, before planning).
  void Analyze() { catalog_.AnalyzeAll(); }

  /// Plans a query under the given knob configuration.
  Result<std::unique_ptr<PlanNode>> Plan(const QuerySpec& query,
                                         const Knobs& knobs) const;

  /// Plans, executes (with caching) and prices a query under an environment.
  /// `noise_rng` drives the latency noise; pass nullptr for expectations.
  ///
  /// Thread-safe: concurrent Run() calls may share one Database. The
  /// execution cache is mutex-guarded; execution itself runs outside the
  /// lock (two threads that race on the same miss both execute and produce
  /// identical records, so results never depend on interleaving). Each call
  /// builds its own Executor/CostSimulator, so the only requirement on
  /// callers is that `noise_rng` is not shared across threads.
  Result<QueryRunResult> Run(const QuerySpec& query, const Environment& env,
                             Rng* noise_rng);

  /// Executes a plan and also returns the materialized result relation
  /// (used by examples and result-correctness tests; no caching). Rows come
  /// in a deterministic order: scan order, then join probe order, GROUP BY
  /// groups in first-seen order, ORDER BY stable.
  Result<Relation> ExecuteForResult(const QuerySpec& query,
                                    const Environment& env, Rng* noise_rng,
                                    QueryRunResult* run);

  size_t execution_cache_size() const {
    ReaderMutexLock lock(&cache_mu_);
    return exec_cache_.size();
  }
  void ClearExecutionCache() {
    WriterMutexLock lock(&cache_mu_);
    exec_cache_.clear();
  }

 private:
  /// Execution artifacts of one plan node, cached in pre-order.
  struct NodeExecRecord {
    double actual_rows = 0.0;
    double input_card = 0.0;
    double input_card2 = 0.0;
    WorkCounts work;
  };

  /// Cache key: plan fingerprint + work_mem bucket (spills depend on it).
  static std::string CacheKey(const PlanNode& plan, const Knobs& knobs);

  std::string name_;
  Catalog catalog_;
  /// Guards the cache map structure only (read-mostly once warm, hence the
  /// reader/writer lock). Entries are shared_ptrs to immutable record
  /// vectors: readers copy the pointer under a shared hold and replay
  /// outside it — now a machine-checked fact (exec_cache_ is guarded, the
  /// replay loop touches only the copied shared_ptr) — so a concurrent
  /// ClearExecutionCache() merely drops the map's reference while
  /// in-flight replays keep theirs alive.
  mutable SharedMutex cache_mu_{lock_rank::kDatabaseCache};
  std::unordered_map<std::string,
                     std::shared_ptr<const std::vector<NodeExecRecord>>>
      exec_cache_ QCFE_GUARDED_BY(cache_mu_);
};

}  // namespace qcfe

#endif  // QCFE_ENGINE_DATABASE_H_
