#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

/// \file perfbench.h
/// Shared types of the benchmark executable: command-line options, the
/// per-workload input regime, and the report every run fills.

#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

/// Threads the benchmark lets the library use at once (the pool size for
/// collection and fitting). Serving runs on the generator, the collector,
/// one flusher and the adaptation worker: four threads as well.
constexpr int kThreads = 4;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;   ///< scratch directory for artifacts and traces
};

/// What differs between workloads. The data scale, environment count,
/// training epochs and world seed are the harness's quick options for the
/// benchmark (OptionsFor in harness/context.h); everything else is shared.
struct Regime {
  std::string name;
  std::string benchmark;     ///< "tpch" | "sysbench"
  /// Requests draw from the first `hot_set` corpus queries; 0 draws from the
  /// whole corpus.
  size_t hot_set = 0;
  double search_from = 0.0;  ///< first rate of the first goodput search
};

const std::vector<Regime>& Regimes();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Correctness-gate violations; any entry fails the run.
  std::vector<std::string> violations;
  uint64_t attempted = 0;  ///< requests sent plus fits run
  uint64_t failed = 0;     ///< failed or rejected requests, failed fits

  void E2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  void Violation(const std::string& what) { violations.push_back(what); }
};

/// Runs setup, fit, serve and adapt for one regime. Returns false when a
/// step could not run at all (the report says why); correctness violations
/// are recorded in the report instead.
bool RunLifecycle(const Options& options, const Regime& regime, Tracer* tracer,
                  Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
