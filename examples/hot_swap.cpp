/// Zero-downtime model replacement: serve from version 1 while a better
/// model trains in the background, publish it atomically, and keep serving
/// through a failed swap.
///
///   - Pipeline::Save / Load      — crash-safe versioned artifacts
///   - SwappableModel             — RCU-style publication point
///   - Pipeline::ServeAsync(models, ...) — hot-swappable micro-batcher
///   - LoadAndSwap                — validate + warm + publish, all-or-nothing
///   - AsyncServeStats            — swaps_published / swaps_rejected /
///                                  model_version counters
///
///   ./build/examples/hot_swap
///
/// The server resolves the current model once per micro-batch, so every
/// request is answered by exactly one version — a swap never tears a batch.
/// A failed LoadAndSwap (corrupt bytes, fingerprint mismatch, probe
/// divergence) leaves the old version serving and only bumps a counter.
///
/// This example drives the swap by hand; examples/online_adaptation.cpp
/// shows the same machinery triggered automatically by drift detection.

#include <cstdio>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "serve/async_server.h"
#include "serve/model_swap.h"
#include "util/fs.h"
#include "util/string_util.h"
#include "workload/benchmark.h"
#include "workload/collector.h"

using namespace qcfe;

namespace {

/// Submits `samples` one by one and returns the served predictions. The
/// idle server cuts the first request at once and the rest as soon as the
/// batch ahead of them comes back; no deadline is waited out.
std::vector<double> ServeBatch(AsyncServer* server,
                               const std::vector<PlanSample>& samples) {
  std::vector<std::future<Result<double>>> futures;
  futures.reserve(samples.size());
  for (const PlanSample& s : samples) {
    futures.push_back(server->Submit(*s.plan, s.env_id));
  }
  std::vector<double> out;
  out.reserve(futures.size());
  for (auto& f : futures) {
    Result<double> r = f.get();
    out.push_back(r.ok() ? *r : -1.0);
  }
  return out;
}

}  // namespace

int main() {
  // 1. Database, environments, labeled corpus (see quickstart for details).
  auto bench = MakeBenchmark("sysbench");
  if (!bench.ok()) {
    std::cerr << bench.status().ToString() << "\n";
    return 1;
  }
  std::unique_ptr<Database> db = (*bench)->BuildDatabase(/*scale_factor=*/0.1,
                                                         /*seed=*/11);
  std::vector<Environment> envs =
      EnvironmentSampler::Sample(3, HardwareProfile::H1(), 13);
  std::vector<QueryTemplate> templates = (*bench)->Templates();
  QueryCollector collector(db.get(), &envs);
  auto corpus = collector.Collect(templates, /*count=*/300, /*seed=*/17);
  if (!corpus.ok()) {
    std::cerr << corpus.status().ToString() << "\n";
    return 1;
  }
  std::vector<PlanSample> train, probe;
  TrainTestSplit split = SplitIndices(corpus->queries.size(), 0.8, 3);
  for (size_t i : split.train) {
    const LabeledQuery& q = corpus->queries[i];
    train.push_back({q.plan.get(), q.env_id, q.total_ms});
  }
  for (size_t i = 0; i < 6; ++i) {
    const LabeledQuery& q = corpus->queries[split.test[i]];
    probe.push_back({q.plan.get(), q.env_id, q.total_ms});
  }

  // 2. Version 1: a cheap first model, saved as a versioned artifact.
  PipelineConfig cfg;
  cfg.estimator = "qppnet";
  cfg.train.epochs = 4;  // deliberately undertrained: v2 will replace it
  auto v1 = Pipeline::Fit(db.get(), &envs, &templates, cfg, train);
  if (!v1.ok()) {
    std::cerr << v1.status().ToString() << "\n";
    return 1;
  }
  const std::string v1_path = "/tmp/qcfe_hot_swap_v1.qcfa";
  const std::string v2_path = "/tmp/qcfe_hot_swap_v2.qcfa";
  if (Status s = (*v1)->Save(v1_path); !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }
  std::cout << "saved v1 artifact: " << v1_path << "\n";

  // 3. Publication point + hot-swappable server. The server outlives any
  //    single pipeline generation; each micro-batch is answered by the
  //    version current at flush time.
  SwappableModel models(std::shared_ptr<const Pipeline>(std::move(v1.value())));
  AsyncServeConfig serve_cfg;
  serve_cfg.max_batch = 64;  // larger than the probe: never a full cut
  std::unique_ptr<AsyncServer> server =
      Pipeline::ServeAsync(&models, serve_cfg);

  std::vector<double> before = ServeBatch(server.get(), probe);
  std::cout << "serving at model_version=" << models.version() << "\n";

  // 4. "Overnight" retrain in the background of the serving process: a
  //    longer-trained v2, saved to its own artifact. Its own predictions on
  //    the probe set become the parity expectations for the swap.
  cfg.train.epochs = 20;
  auto v2 = Pipeline::Fit(db.get(), &envs, &templates, cfg, train);
  if (!v2.ok()) {
    std::cerr << v2.status().ToString() << "\n";
    return 1;
  }
  SwapOptions swap;
  swap.probe = probe;
  auto expected = (*v2)->PredictBatch(probe);
  if (!expected.ok()) {
    std::cerr << expected.status().ToString() << "\n";
    return 1;
  }
  swap.expected = *expected;
  if (Status s = (*v2)->Save(v2_path); !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }
  std::cout << "retrained and saved v2 artifact: " << v2_path << "\n";

  // 5. Swap: load the artifact, validate its fingerprint, warm it with the
  //    parity probe, publish. In-flight requests keep the version they
  //    resolved; new batches see v2.
  auto swapped = LoadAndSwap(db.get(), &envs, &templates, v2_path, swap,
                             &models, server.get());
  if (!swapped.ok()) {
    std::cerr << swapped.status().ToString() << "\n";
    return 1;
  }
  std::vector<double> after = ServeBatch(server.get(), probe);
  std::cout << "hot-swapped to model_version=" << models.version()
            << "; pre/post-swap predictions on the probe set:\n";
  for (size_t i = 0; i < probe.size(); ++i) {
    std::cout << "  plan " << i << ": " << FormatDouble(before[i], 3)
              << " ms -> " << FormatDouble(after[i], 3) << " ms (label "
              << FormatDouble(probe[i].label_ms, 3) << ")\n";
  }

  // 6. A failed swap is a non-event for traffic: corrupt the v1 artifact,
  //    try to swap to it, and watch the rejected-swap counter tick while v2
  //    keeps serving bit-identically.
  {
    Fs* fs = Fs::Default();
    auto bytes = fs->ReadFile(v1_path);
    if (bytes.ok()) {
      std::string damaged = *bytes;
      damaged[damaged.size() / 2] ^= 0x20;
      // If corrupting the demo file fails, the swap below just succeeds.
      (void)AtomicWriteFile(fs, v1_path, damaged);
    }
  }
  auto failed = LoadAndSwap(db.get(), &envs, &templates, v1_path, {}, &models,
                            server.get());
  std::cout << "\nswap to corrupted artifact rejected: "
            << failed.status().ToString() << "\n";
  std::vector<double> still = ServeBatch(server.get(), probe);
  bool identical = still == after;
  std::cout << "old version kept serving, predictions "
            << (identical ? "bit-identical" : "DIVERGED (bug!)") << "\n";

  server->Shutdown();
  AsyncServeStats stats = server->stats();
  std::cout << "\nswap counters: " << stats.swaps_published << " published, "
            << stats.swaps_rejected << " rejected, final model_version="
            << stats.model_version << "; " << stats.served
            << " requests served across " << stats.batches_flushed
            << " micro-batches\n";
  (void)Fs::Default()->RemoveFile(v1_path);  // best-effort demo cleanup
  (void)Fs::Default()->RemoveFile(v2_path);  // best-effort demo cleanup
  return identical && stats.swaps_published == 1 && stats.swaps_rejected == 1
             ? 0
             : 1;
}
