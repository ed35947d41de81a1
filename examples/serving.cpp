/// Async serving: fit a QCFE pipeline, stand up the micro-batching front
/// end, and serve single-plan requests from many concurrent caller threads.
///
///   - SwappableModel             — the fitted pipeline, published once
///   - Pipeline::ServeAsync       — AsyncServer over the published pipeline
///   - AsyncServer::Submit        — one (plan, env) request -> future
///   - AsyncServeConfig           — batch size, deadline, admission
///   - AsyncServeStats            — flush counters / occupancy
///   - FakeClock                  — frozen time: the idle cut needs none
///
///   ./build/examples/serving
///
/// The front end coalesces concurrent singleton submissions into
/// micro-batches for the batched serving path (request dedup + matrix
/// batching). An idle server cuts a request at once; requests that arrive
/// while a batch is in the model queue up and are cut together when it
/// comes back — results are bit-identical to calling PredictMs yourself,
/// just cheaper per request under load.
/// Exits non-zero if any async prediction fails.

#include <future>
#include <iostream>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "serve/async_server.h"
#include "serve/model_swap.h"
#include "util/clock.h"
#include "util/string_util.h"
#include "workload/benchmark.h"
#include "workload/collector.h"

using namespace qcfe;

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
  std::vector<PlanSample> train, test;
  TrainTestSplit split = SplitIndices(corpus->queries.size(), 0.8, 3);
  for (size_t i : split.train) {
    const LabeledQuery& q = corpus->queries[i];
    train.push_back({q.plan.get(), q.env_id, q.total_ms});
  }
  for (size_t i : split.test) {
    const LabeledQuery& q = corpus->queries[i];
    test.push_back({q.plan.get(), q.env_id, q.total_ms});
  }

  // 2. Fit the pipeline and publish it once. Every server serves whatever
  //    its SwappableModel publishes; a pipeline that never changes is
  //    simply never replaced (examples/hot_swap.cpp replaces one live).
  PipelineConfig cfg;
  cfg.estimator = "qppnet";
  cfg.train.epochs = 10;
  auto pipeline = Pipeline::Fit(db.get(), &envs, &templates, cfg, train);
  if (!pipeline.ok()) {
    std::cerr << pipeline.status().ToString() << "\n";
    return 1;
  }
  std::cout << (*pipeline)->Explain();
  SwappableModel models(
      std::shared_ptr<const Pipeline>(std::move(pipeline.value())));

  AsyncServeConfig serve_cfg;
  serve_cfg.max_batch = 32;          // at most 32 requests per batch
  serve_cfg.max_delay_micros = 500;  // bounds a wait behind a busy flusher
  serve_cfg.max_queue = 4096;        // admission control bound

  // 3. Serve: four caller threads submit single plans concurrently; the
  //    server coalesces them into micro-batches behind the scenes. Every
  //    future's value is bit-identical to a direct PredictMs call.
  {
    std::unique_ptr<AsyncServer> server =
        Pipeline::ServeAsync(&models, serve_cfg);
    constexpr size_t kCallers = 4;
    std::vector<double> sums(kCallers, 0.0);
    std::vector<size_t> failures(kCallers, 0);
    std::vector<std::thread> callers;
    for (size_t c = 0; c < kCallers; ++c) {
      callers.emplace_back([&, c] {
        std::vector<std::future<Result<double>>> futures;
        for (size_t i = c; i < test.size(); i += kCallers) {
          futures.push_back(server->Submit(*test[i].plan, test[i].env_id));
        }
        for (auto& f : futures) {
          Result<double> r = f.get();
          if (r.ok()) {
            sums[c] += *r;
          } else {
            ++failures[c];
          }
        }
      });
    }
    for (std::thread& t : callers) t.join();
    size_t failed = 0;
    for (size_t n : failures) failed += n;
    if (failed > 0) {
      std::cerr << failed << " async predictions failed\n";
      return 1;
    }
    AsyncServeStats stats = server->stats();
    std::cout << "\nasync serving: " << stats.served << " requests in "
              << stats.batches_flushed << " micro-batches (mean occupancy "
              << FormatDouble(stats.mean_occupancy, 1) << ", "
              << stats.idle_flushes << " idle (" << stats.caller_runs
              << " on the caller's thread) / " << stats.full_flushes
              << " full / " << stats.deadline_flushes << " deadline / "
              << stats.drain_flushes << " drain flushes)\n";
    double total = 0.0;
    for (double s : sums) total += s;
    std::cout << "sum of predictions: " << FormatDouble(total, 2)
              << " ms (callers saw bit-identical PredictMs values)\n";
  }  // ~AsyncServer drains and joins.

  // 4. Deterministic flush timing with an injected clock: time only moves
  //    when the caller advances it, and here it never does. The server is
  //    idle, so the lone request is cut at once rather than waiting out
  //    max_delay, and served on this thread (a caller run): the future is
  //    ready when Submit returns. This is how the async test suite pins cut
  //    points without sleeps.
  FakeClock clock;
  std::unique_ptr<AsyncServer> server =
      Pipeline::ServeAsync(&models, serve_cfg, &clock);
  Result<double> r = server->Submit(*test[0].plan, test[0].env_id).get();
  server->Shutdown();
  if (!r.ok()) {
    std::cerr << "idle cut failed: " << r.status().ToString() << "\n";
    return 1;
  }
  const AsyncServeStats idle = server->stats();
  std::cout << "\nfake clock frozen at t=0: 1 request served -> "
            << FormatDouble(*r, 3) << " ms (idle_flushes=" << idle.idle_flushes
            << ", caller_runs=" << idle.caller_runs
            << ", deadline_flushes=" << idle.deadline_flushes << ")\n";
  if (idle.idle_flushes != 1 || idle.batches_flushed != 1 ||
      idle.caller_runs != 1) {
    std::cerr << "expected exactly one idle cut, run on the caller's thread\n";
    return 1;
  }
  return 0;
}
