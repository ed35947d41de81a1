/// Deterministic concurrency suite for the async micro-batching front end
/// (serve/async_server.h). Two layers:
///
///  * Fake-clock cut-point tests against a stub estimator, fitted into a
///    pipeline and published once like any served model: the idle cut, the
///    batch-full and deadline cuts behind a batch in flight, backlog
///    splitting, shutdown drain/cancel semantics, per-request error
///    isolation and admission control — with zero sleeps. Time only moves
///    when the test calls FakeClock::Advance, and a batch is in flight only
///    while the test holds the stub's flush gate (HeldBatch), so every cut
///    decision is forced, not raced.
///  * Multi-threaded stress tests against real fitted pipelines: N caller
///    threads submit randomized plans and every delivered result must be
///    bit-identical to a direct PredictBatchMs call on the same model,
///    across 1/2/4 flusher threads, repeated runs and a pooled generation.
///    Which micro-batch a request lands in is scheduling-dependent; the
///    bits of its answer are not.
///
/// CI runs this suite under ThreadSanitizer and UBSan (see
/// .github/workflows/ci.yml), and repeats the fake-clock layer under
/// ThreadSanitizer, so queue/flush races and cut-timing assumptions that
/// hold only by scheduling luck fail the build.

#include <gtest/gtest.h>

#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "harness/context.h"
#include "models/registry.h"
#include "serve/async_server.h"
#include "serve/model_swap.h"
#include "util/check.h"
#include "util/clock.h"
#include "util/rng.h"
#include "util/sync.h"

namespace qcfe {
namespace {

// ------------------------------------------------------ fake-clock suite

/// Requests for this environment pass through the flush gate.
constexpr int kGateEnv = 1000;

/// Test-controlled flush gate. While it is closed, the stub model blocks in
/// PredictShard on a kGateEnv request until the test opens it, so "a batch
/// is in flight" is a state the test holds rather than a race it hopes to
/// win. Process-wide and never destroyed: a flusher may still be leaving
/// Pass() after the test that opened the gate has moved on.
class FlushGate {
 public:
  static FlushGate* Get() {
    static FlushGate* gate = new FlushGate();
    return gate;
  }

  /// The next kGateEnv request blocks until Open().
  void Close() {
    MutexLock lock(&mu_);
    open_ = false;
    entered_ = false;
  }

  void Open() {
    MutexLock lock(&mu_);
    open_ = true;
    cv_.NotifyAll();
  }

  /// Returns once a flusher is blocked in Pass() on the closed gate.
  void WaitEntered() {
    MutexLock lock(&mu_);
    cv_.Wait(&mu_, [this] {
      QCFE_ASSERT_HELD(mu_);
      return entered_;
    });
  }

  /// Called by the stub model for a kGateEnv request.
  void Pass() {
    MutexLock lock(&mu_);
    entered_ = true;
    cv_.NotifyAll();
    cv_.Wait(&mu_, [this] {
      QCFE_ASSERT_HELD(mu_);
      return open_;
    });
  }

 private:
  /// A leaf: held by a flusher only inside the model, with no server lock.
  Mutex mu_;
  CondVar cv_;
  bool open_ QCFE_GUARDED_BY(mu_) = true;
  bool entered_ QCFE_GUARDED_BY(mu_) = false;
};

/// Deterministic stub estimator: prediction is a pure function of the
/// request, and env_id < 0 simulates a poisoned request. A kGateEnv request
/// first waits at the flush gate. No training and no database fixture, so
/// the cut-point tests run in milliseconds.
class StubModel : public CostModel {
 public:
  std::string name() const override { return "stub"; }

  Status Train(const std::vector<PlanSample>&, const TrainConfig&,
               TrainStats*) override {
    return Status::OK();
  }

  void PredictShard(const std::vector<PlanSample>& requests, size_t begin,
                    size_t end,
                    std::vector<BatchPrediction>* out) const override {
    for (size_t i = begin; i < end; ++i) {
      if (requests[i].env_id == kGateEnv) FlushGate::Get()->Pass();
      if (requests[i].env_id < 0) {
        (*out)[i].status =
            Status::NumericError("poisoned request (stub model)");
      } else {
        (*out)[i].ms = 1.25 * static_cast<double>(requests[i].env_id) +
                       requests[i].plan->est_rows;
      }
    }
  }
};

/// Registered as a non-learned estimator, so Pipeline::Fit skips snapshot,
/// reduction and every corpus-dependent step.
const EstimatorRegistration kStubRegistration{
    {"stub", "Stub", "stub", /*learned=*/false},
    [](const EstimatorContext&) -> Result<std::unique_ptr<CostModel>> {
      return std::unique_ptr<CostModel>(new StubModel());
    }};

/// The stub estimator fitted against an empty world and published once,
/// shared by every fake-clock test (each builds its own server).
struct StubGeneration {
  Database db{"stub"};
  std::vector<Environment> envs;
  std::vector<QueryTemplate> templates;
  SwappableModel models;
};

StubGeneration* Stub() {
  static StubGeneration* stub = [] {
    auto* g = new StubGeneration();
    PipelineConfig cfg;
    cfg.estimator = "stub";
    auto pipeline = Pipeline::Fit(&g->db, &g->envs, &g->templates, cfg, {});
    QCFE_CHECK(pipeline.ok(), "stub pipeline fit failed");
    g->models.Publish(
        std::shared_ptr<const Pipeline>(std::move(pipeline.value())));
    return g;
  }();
  return stub;
}

/// Holds one batch in flight: the constructor submits a gate request to an
/// idle server and returns once a flusher is blocked serving it (the
/// request was cut alone, as an idle cut). Declare it after the server:
/// its destructor opens the gate, so an early test exit never leaves the
/// server's drain waiting on it.
class HeldBatch {
 public:
  HeldBatch(AsyncServer* server, const PlanNode& plan) {
    FlushGate::Get()->Close();
    reply_ = server->Submit(plan, kGateEnv);
    FlushGate::Get()->WaitEntered();
  }
  ~HeldBatch() { FlushGate::Get()->Open(); }

  HeldBatch(const HeldBatch&) = delete;
  HeldBatch& operator=(const HeldBatch&) = delete;

  /// Lets the held batch finish and returns its reply. Call at most once.
  Result<double> Release() {
    FlushGate::Get()->Open();
    return reply_.get();
  }

 private:
  std::future<Result<double>> reply_;
};

class AsyncFakeClockTest : public ::testing::Test {
 protected:
  AsyncFakeClockTest() {
    plan_.est_rows = 10.0;
    other_plan_.est_rows = 20.0;
  }

  double Direct(const PlanNode& plan, int env_id) {
    return *models_->Current()->PredictMs(plan, env_id);
  }

  /// Releases `held` and checks its reply.
  void ExpectReleased(HeldBatch* held) {
    Result<double> r = held->Release();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(*r, Direct(plan_, kGateEnv));
  }

  const SwappableModel* models_ = &Stub()->models;
  FakeClock clock_;
  PlanNode plan_, other_plan_;
};

TEST_F(AsyncFakeClockTest, IdleServerCutsALoneRequestAtOnce) {
  AsyncServeConfig cfg;
  cfg.max_batch = 8;
  cfg.max_delay_micros = 1'000'000;  // never reached: time stays at 0
  AsyncServer server(models_, cfg, &clock_);

  // Nothing is in flight, so the request is cut the moment it is queued:
  // no Advance, no full batch.
  Result<double> r = server.Submit(plan_, 3).get();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, Direct(plan_, 3));
  AsyncServeStats stats = server.stats();
  EXPECT_EQ(stats.batches_flushed, 1u);
  EXPECT_EQ(stats.idle_flushes, 1u);
  EXPECT_EQ(stats.full_flushes, 0u);
  EXPECT_EQ(stats.deadline_flushes, 0u);
  EXPECT_EQ(stats.mean_occupancy, 1.0);
}

TEST_F(AsyncFakeClockTest, RequestsQueuedBehindABatchInFlightComeBackAsOne) {
  AsyncServeConfig cfg;
  cfg.max_batch = 8;
  cfg.max_delay_micros = 1'000'000;
  AsyncServer server(models_, cfg, &clock_);
  HeldBatch held(&server, plan_);

  // The only flusher is in the model: the five requests wait in the queue
  // and are cut together, as one idle cut, the moment it comes back.
  std::vector<std::future<Result<double>>> futures;
  for (int env = 0; env < 5; ++env) futures.push_back(server.Submit(plan_, env));
  EXPECT_EQ(server.stats().batches_flushed, 0u);
  ExpectReleased(&held);
  for (int env = 0; env < 5; ++env) {
    Result<double> r = futures[static_cast<size_t>(env)].get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(*r, Direct(plan_, env));
  }
  AsyncServeStats stats = server.stats();
  EXPECT_EQ(stats.served, 6u);
  EXPECT_EQ(stats.batches_flushed, 2u);
  EXPECT_EQ(stats.idle_flushes, 2u);
  EXPECT_EQ(stats.full_flushes, 0u);
  EXPECT_EQ(stats.deadline_flushes, 0u);
}

TEST_F(AsyncFakeClockTest, BacklogLongerThanMaxBatchSplitsIntoMaxBatchCuts) {
  AsyncServeConfig cfg;
  cfg.max_batch = 4;
  cfg.max_delay_micros = 1'000'000;
  AsyncServer server(models_, cfg, &clock_);
  HeldBatch held(&server, plan_);

  std::vector<std::future<Result<double>>> futures;
  for (int env = 0; env < 10; ++env) {
    futures.push_back(server.Submit(plan_, env));
  }
  ExpectReleased(&held);
  for (int env = 0; env < 10; ++env) {
    EXPECT_EQ(*futures[static_cast<size_t>(env)].get(), Direct(plan_, env));
  }
  // The backlog of 10 is cut 4 + 4 (full) + 2 (idle), after the held
  // batch's own idle cut of 1.
  AsyncServeStats stats = server.stats();
  EXPECT_EQ(stats.served, 11u);
  EXPECT_EQ(stats.batches_flushed, 4u);
  EXPECT_EQ(stats.full_flushes, 2u);
  EXPECT_EQ(stats.idle_flushes, 2u);
  EXPECT_EQ(stats.deadline_flushes, 0u);
}

TEST_F(AsyncFakeClockTest, IdleCutFollowsTheLastBatchInFlight) {
  // Two flushers: one holds the gate batch, the other waits on the head's
  // deadline, which never comes. When the held batch comes back the server
  // is idle again, and the queue is cut at once, by either flusher.
  AsyncServeConfig cfg;
  cfg.max_batch = 8;
  cfg.max_delay_micros = 1'000'000;
  cfg.num_workers = 2;
  AsyncServer server(models_, cfg, &clock_);
  HeldBatch held(&server, plan_);

  std::vector<std::future<Result<double>>> futures;
  for (int env = 0; env < 3; ++env) futures.push_back(server.Submit(plan_, env));
  EXPECT_EQ(server.stats().batches_flushed, 0u);
  ExpectReleased(&held);
  for (int env = 0; env < 3; ++env) {
    EXPECT_EQ(*futures[static_cast<size_t>(env)].get(), Direct(plan_, env));
  }
  AsyncServeStats stats = server.stats();
  EXPECT_EQ(stats.batches_flushed, 2u);
  EXPECT_EQ(stats.idle_flushes, 2u);
  EXPECT_EQ(stats.deadline_flushes, 0u);
  EXPECT_EQ(stats.full_flushes, 0u);
}

TEST_F(AsyncFakeClockTest, FullBatchFlushesBeforeDeadline) {
  // The second flusher cuts a full batch while the first is still in the
  // model; no time passes.
  AsyncServeConfig cfg;
  cfg.max_batch = 4;
  cfg.max_delay_micros = 1'000'000;  // never reached: time stays at 0
  cfg.num_workers = 2;
  AsyncServer server(models_, cfg, &clock_);
  HeldBatch held(&server, plan_);

  std::vector<std::future<Result<double>>> futures;
  for (int env = 0; env < 4; ++env) futures.push_back(server.Submit(plan_, env));
  // The fourth submission completes the batch. get() blocks until the
  // flusher delivers.
  for (int env = 0; env < 4; ++env) {
    Result<double> r = futures[static_cast<size_t>(env)].get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(*r, Direct(plan_, env));
  }
  AsyncServeStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 5u);
  EXPECT_EQ(stats.batches_flushed, 1u);
  EXPECT_EQ(stats.full_flushes, 1u);
  EXPECT_EQ(stats.deadline_flushes, 0u);
  EXPECT_EQ(stats.served, 4u);
  EXPECT_EQ(stats.mean_occupancy, 4.0);

  ExpectReleased(&held);
  EXPECT_EQ(server.stats().idle_flushes, 1u);
}

TEST_F(AsyncFakeClockTest, DeadlineFlushesPartialBatch) {
  AsyncServeConfig cfg;
  cfg.max_batch = 8;
  cfg.max_delay_micros = 1000;
  cfg.num_workers = 2;
  AsyncServer server(models_, cfg, &clock_);
  HeldBatch held(&server, plan_);

  std::vector<std::future<Result<double>>> futures;
  for (int env = 0; env < 3; ++env) futures.push_back(server.Submit(plan_, env));
  // Nothing can legitimately flush: a batch is in flight, the queue is not
  // full and the deadline cannot pass until the test advances time.
  EXPECT_EQ(server.stats().batches_flushed, 0u);

  clock_.Advance(cfg.max_delay_micros);
  for (int env = 0; env < 3; ++env) {
    Result<double> r = futures[static_cast<size_t>(env)].get();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, Direct(plan_, env));
  }
  AsyncServeStats stats = server.stats();
  EXPECT_EQ(stats.batches_flushed, 1u);
  EXPECT_EQ(stats.deadline_flushes, 1u);
  EXPECT_EQ(stats.full_flushes, 0u);
  EXPECT_EQ(stats.idle_flushes, 0u);
  EXPECT_EQ(stats.mean_occupancy, 3.0);

  ExpectReleased(&held);
  EXPECT_EQ(server.stats().idle_flushes, 1u);
}

TEST_F(AsyncFakeClockTest, DeadlineRunsFromTheOldestQueuedRequest) {
  AsyncServeConfig cfg;
  cfg.max_batch = 8;
  cfg.max_delay_micros = 1000;
  cfg.num_workers = 2;
  AsyncServer server(models_, cfg, &clock_);
  HeldBatch held(&server, plan_);

  auto first = server.Submit(plan_, 1);  // enqueued at t=0, deadline t=1000
  clock_.Advance(600);
  auto second = server.Submit(other_plan_, 2);  // enqueued at t=600
  EXPECT_EQ(server.stats().batches_flushed, 0u);

  // Reaching the FIRST request's deadline flushes both queued requests.
  clock_.Advance(400);
  EXPECT_EQ(*first.get(), Direct(plan_, 1));
  EXPECT_EQ(*second.get(), Direct(other_plan_, 2));
  AsyncServeStats stats = server.stats();
  EXPECT_EQ(stats.batches_flushed, 1u);
  EXPECT_EQ(stats.deadline_flushes, 1u);
  EXPECT_EQ(stats.served, 2u);
  ExpectReleased(&held);
}

TEST_F(AsyncFakeClockTest, ShutdownDrainServesQueuedWork) {
  // Drain with a batch in flight: the free flusher serves the queue while
  // the held batch is still in the model.
  AsyncServeConfig cfg;
  cfg.max_batch = 8;
  cfg.max_delay_micros = 1'000'000;
  cfg.num_workers = 2;
  AsyncServer server(models_, cfg, &clock_);
  HeldBatch held(&server, plan_);

  std::vector<std::future<Result<double>>> futures;
  for (int env = 0; env < 3; ++env) futures.push_back(server.Submit(plan_, env));
  // Shutdown joins the flushers, and one of them is held: stop from a
  // second thread.
  std::thread stopper(
      [&server] { server.Shutdown(AsyncServer::ShutdownMode::kDrain); });

  for (int env = 0; env < 3; ++env) {
    Result<double> r = futures[static_cast<size_t>(env)].get();
    EXPECT_TRUE(r.ok());
    if (r.ok()) {
      EXPECT_EQ(*r, Direct(plan_, env));
    }
  }
  AsyncServeStats stats = server.stats();
  EXPECT_EQ(stats.batches_flushed, 1u);
  EXPECT_EQ(stats.drain_flushes, 1u);
  EXPECT_EQ(stats.served, 3u);
  EXPECT_EQ(stats.cancelled, 0u);

  // Post-shutdown submissions are rejected, not queued.
  Result<double> late = server.Submit(plan_, 9).get();
  EXPECT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(server.stats().rejected, 1u);

  // The held batch is still served, and then the drain completes.
  ExpectReleased(&held);
  stopper.join();
  EXPECT_EQ(server.stats().served, 4u);
}

TEST_F(AsyncFakeClockTest, ShutdownCancelFailsQueuedWork) {
  AsyncServeConfig cfg;
  cfg.max_batch = 8;
  cfg.max_delay_micros = 1'000'000;
  AsyncServer server(models_, cfg, &clock_);
  HeldBatch held(&server, plan_);

  std::vector<std::future<Result<double>>> futures;
  for (int env = 0; env < 3; ++env) futures.push_back(server.Submit(plan_, env));
  // Shutdown joins the flusher, which is held: stop from a second thread.
  // Cancel fails the queue before it joins.
  std::thread stopper(
      [&server] { server.Shutdown(AsyncServer::ShutdownMode::kCancel); });

  for (auto& f : futures) {
    Result<double> r = f.get();
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  }
  AsyncServeStats stats = server.stats();
  EXPECT_EQ(stats.cancelled, 3u);
  EXPECT_EQ(stats.batches_flushed, 0u);
  EXPECT_EQ(stats.served, 0u);

  // A batch already cut is still served under kCancel.
  ExpectReleased(&held);
  stopper.join();
  stats = server.stats();
  EXPECT_EQ(stats.batches_flushed, 1u);
  EXPECT_EQ(stats.served, 1u);
}

TEST_F(AsyncFakeClockTest, PoisonedRequestFailsOnlyItsOwnCaller) {
  AsyncServeConfig cfg;
  cfg.max_batch = 4;
  cfg.max_delay_micros = 1'000'000;
  AsyncServer server(models_, cfg, &clock_);
  HeldBatch held(&server, plan_);

  // One poisoned request (env_id < 0) co-batched with three healthy ones:
  // they queue behind the held batch and are cut as one full batch.
  auto ok0 = server.Submit(plan_, 0);
  auto poisoned = server.Submit(plan_, -1);
  auto ok1 = server.Submit(other_plan_, 1);
  auto ok2 = server.Submit(plan_, 2);
  ExpectReleased(&held);

  Result<double> bad = poisoned.get();
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNumericError);

  EXPECT_EQ(*ok0.get(), Direct(plan_, 0));
  EXPECT_EQ(*ok1.get(), Direct(other_plan_, 1));
  EXPECT_EQ(*ok2.get(), Direct(plan_, 2));

  AsyncServeStats stats = server.stats();
  EXPECT_EQ(stats.served, 5u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.batches_flushed, 2u);
  EXPECT_EQ(stats.full_flushes, 1u);
}

TEST_F(AsyncFakeClockTest, AdmissionControlRejectsWhenQueueIsFull) {
  AsyncServeConfig cfg;
  cfg.max_batch = 8;
  cfg.max_delay_micros = 1'000'000;
  cfg.max_queue = 2;
  AsyncServer server(models_, cfg, &clock_);
  HeldBatch held(&server, plan_);  // cut, so it is not in the queue

  auto a = server.Submit(plan_, 0);
  auto b = server.Submit(plan_, 1);
  // The queue cannot shrink (its only flusher is held), so the third
  // submission is deterministically rejected, with the future ready
  // immediately.
  Result<double> rejected = server.Submit(plan_, 2).get();
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);

  AsyncServeStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.rejected, 1u);

  // The accepted requests still drain normally.
  ExpectReleased(&held);
  server.Shutdown(AsyncServer::ShutdownMode::kDrain);
  EXPECT_EQ(*a.get(), Direct(plan_, 0));
  EXPECT_EQ(*b.get(), Direct(plan_, 1));
}

TEST_F(AsyncFakeClockTest, MultipleWorkersDrainSeveralFullBatches) {
  // With one flusher held, the other cuts every pair as a full batch.
  AsyncServeConfig cfg;
  cfg.max_batch = 2;
  cfg.max_delay_micros = 1'000'000;
  cfg.num_workers = 2;
  AsyncServer server(models_, cfg, &clock_);
  HeldBatch held(&server, plan_);

  std::vector<std::future<Result<double>>> futures;
  for (int env = 0; env < 8; ++env) futures.push_back(server.Submit(plan_, env));
  for (int env = 0; env < 8; ++env) {
    EXPECT_EQ(*futures[static_cast<size_t>(env)].get(), Direct(plan_, env));
  }
  AsyncServeStats stats = server.stats();
  EXPECT_EQ(stats.served, 8u);
  EXPECT_EQ(stats.batches_flushed, 4u);
  EXPECT_EQ(stats.full_flushes, 4u);
  EXPECT_EQ(stats.mean_occupancy, 2.0);
  ExpectReleased(&held);
}

TEST_F(AsyncFakeClockTest, HugeDelayDisablesDeadlineWithoutOverflow) {
  // max_delay_micros = INT64_MAX is the natural way to ask for
  // batch-full-only cuts while a batch is in flight; the deadline
  // arithmetic must saturate (to Clock::kNoDeadline) rather than overflow.
  // Regression for the flusher's head_enqueued + max_delay sum; the UBSan
  // CI job enforces it.
  AsyncServeConfig cfg;
  cfg.max_batch = 2;
  cfg.max_delay_micros = std::numeric_limits<int64_t>::max();
  cfg.num_workers = 2;
  AsyncServer server(models_, cfg, &clock_);
  HeldBatch held(&server, plan_);

  auto first = server.Submit(plan_, 0);
  clock_.Advance(1'000'000'000);  // a long time passes: still no flush
  EXPECT_EQ(server.stats().batches_flushed, 0u);

  auto second = server.Submit(plan_, 1);  // completes the batch
  EXPECT_EQ(*first.get(), Direct(plan_, 0));
  EXPECT_EQ(*second.get(), Direct(plan_, 1));
  AsyncServeStats stats = server.stats();
  EXPECT_EQ(stats.full_flushes, 1u);
  EXPECT_EQ(stats.deadline_flushes, 0u);
  ExpectReleased(&held);
}

TEST_F(AsyncFakeClockTest, DeadlineFlushWorksWithMultipleWorkers) {
  // Two free flushers wait on the same head deadline; exactly one cuts.
  AsyncServeConfig cfg;
  cfg.max_batch = 8;
  cfg.max_delay_micros = 500;
  cfg.num_workers = 3;
  AsyncServer server(models_, cfg, &clock_);
  HeldBatch held(&server, plan_);

  auto f = server.Submit(plan_, 3);
  EXPECT_EQ(server.stats().batches_flushed, 0u);
  clock_.Advance(500);
  EXPECT_EQ(*f.get(), Direct(plan_, 3));
  AsyncServeStats stats = server.stats();
  EXPECT_EQ(stats.batches_flushed, 1u);
  EXPECT_EQ(stats.deadline_flushes, 1u);
  ExpectReleased(&held);
}

// --------------------------------------------------------- stress suite

/// Real-model stress fixture, mirroring parallel_test's setup: a quick
/// sysbench context plus small trained estimators.
class AsyncStressTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    HarnessOptions opt = OptionsFor("sysbench", RunScale::kQuick);
    opt.corpus_size = 120;
    opt.num_envs = 3;
    auto ctx = BenchmarkContext::Create(opt);
    ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
    ctx_ = ctx.value().release();
    ctx_->Split(120, &train_, &test_);
  }

  static void TearDownTestSuite() {
    delete ctx_;
    ctx_ = nullptr;
  }

  /// A pipeline around the bare estimator (snapshot and reduction off),
  /// fitted on the training split. `threads` > 1 gives it a worker pool.
  static std::shared_ptr<const Pipeline> FittedPipeline(
      const std::string& name, uint64_t seed, int threads = 1) {
    PipelineConfig cfg;
    cfg.estimator = name;
    cfg.use_snapshot = false;
    cfg.use_reduction = false;
    cfg.train.epochs = 3;
    cfg.parallelism.num_threads = threads;
    cfg.seed = seed;
    auto pipeline = ctx_->FitPipeline(cfg, train_);
    EXPECT_TRUE(pipeline.ok()) << pipeline.status().ToString();
    return std::shared_ptr<const Pipeline>(std::move(pipeline.value()));
  }

  /// `count` samples for caller `caller`, drawn from the test split with a
  /// per-caller Rng stream (deterministic, overlapping across callers so
  /// micro-batches exercise request dedup).
  static std::vector<PlanSample> CallerSamples(uint64_t run_seed,
                                               size_t caller, size_t count) {
    Rng rng(run_seed);
    Rng stream = rng.Split(caller);
    std::vector<PlanSample> out;
    out.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      size_t pick = static_cast<size_t>(
          stream.UniformInt(0, static_cast<int>(test_.size()) - 1));
      out.push_back(test_[pick]);
    }
    return out;
  }

  static BenchmarkContext* ctx_;
  static std::vector<PlanSample> train_, test_;
};

BenchmarkContext* AsyncStressTest::ctx_ = nullptr;
std::vector<PlanSample> AsyncStressTest::train_;
std::vector<PlanSample> AsyncStressTest::test_;

TEST_F(AsyncStressTest, ResultsBitIdenticalToDirectBatchedServing) {
  constexpr size_t kCallers = 4;
  constexpr size_t kPerCaller = 80;
  for (const char* name : {"qppnet", "mscn"}) {
    SwappableModel models(FittedPipeline(name, 41));
    const CostModel& model = models.Current()->model();
    // Ground truth per caller, straight through the batched serving path.
    for (size_t workers : {size_t{1}, size_t{2}, size_t{4}}) {
      for (uint64_t run = 0; run < 2; ++run) {
        const uint64_t run_seed = 1000 + run;
        std::vector<std::vector<PlanSample>> submissions(kCallers);
        std::vector<std::vector<double>> expected(kCallers);
        for (size_t c = 0; c < kCallers; ++c) {
          submissions[c] = CallerSamples(run_seed, c, kPerCaller);
          auto direct = model.PredictBatchMs(submissions[c], nullptr);
          ASSERT_TRUE(direct.ok()) << name;
          expected[c] = std::move(direct.value());
        }

        AsyncServeConfig cfg;
        cfg.max_batch = 16;
        cfg.max_delay_micros = 200;  // real clock: tiny deadline, no sleeps
        cfg.num_workers = workers;
        cfg.max_queue = 0;  // stress the queue, not admission control
        AsyncServer server(&models, cfg);

        std::vector<std::vector<Result<double>>> got(kCallers);
        std::vector<std::thread> callers;
        callers.reserve(kCallers);
        for (size_t c = 0; c < kCallers; ++c) {
          callers.emplace_back([&, c] {
            std::vector<std::future<Result<double>>> futures;
            futures.reserve(submissions[c].size());
            for (const PlanSample& s : submissions[c]) {
              futures.push_back(server.Submit(*s.plan, s.env_id));
            }
            for (auto& f : futures) got[c].push_back(f.get());
          });
        }
        for (std::thread& t : callers) t.join();
        server.Shutdown(AsyncServer::ShutdownMode::kDrain);

        for (size_t c = 0; c < kCallers; ++c) {
          ASSERT_EQ(got[c].size(), kPerCaller);
          for (size_t i = 0; i < kPerCaller; ++i) {
            ASSERT_TRUE(got[c][i].ok())
                << name << " caller " << c << " sample " << i << ": "
                << got[c][i].status().ToString();
            EXPECT_EQ(*got[c][i], expected[c][i])
                << name << " caller " << c << " sample " << i << " workers "
                << workers << " run " << run;
          }
        }
        AsyncServeStats stats = server.stats();
        EXPECT_EQ(stats.submitted, kCallers * kPerCaller);
        EXPECT_EQ(stats.served, kCallers * kPerCaller);
        EXPECT_EQ(stats.failed, 0u);
        EXPECT_GE(stats.mean_occupancy, 1.0);
      }
    }
  }
}

TEST_F(AsyncStressTest, ServerShardsFlushedBatchesAcrossAThreadPool) {
  // Same parity contract when the server also shards each flushed batch
  // across the published generation's own worker pool.
  SwappableModel models(FittedPipeline("qppnet", 43, /*threads=*/2));
  ASSERT_NE(models.Current()->thread_pool(), nullptr);
  std::vector<PlanSample> submissions = CallerSamples(7, 0, 120);
  auto direct =
      models.Current()->model().PredictBatchMs(submissions, nullptr);
  ASSERT_TRUE(direct.ok());

  AsyncServeConfig cfg;
  cfg.max_batch = 32;
  cfg.max_delay_micros = 200;
  cfg.num_workers = 2;
  AsyncServer server(&models, cfg);
  std::vector<std::future<Result<double>>> futures;
  futures.reserve(submissions.size());
  for (const PlanSample& s : submissions) {
    futures.push_back(server.Submit(*s.plan, s.env_id));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    Result<double> r = futures[i].get();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, (*direct)[i]) << " sample " << i;
  }
}

TEST_F(AsyncStressTest, PipelineServeAsyncMatchesPredictBatch) {
  // End-to-end through the facade: a fitted pipeline published once and
  // served by Pipeline::ServeAsync with a FakeClock, against
  // Pipeline::PredictBatch. The idle server cuts the first request at once
  // and the rest as they queue behind it; the Advance past the deadline
  // changes no bit.
  PipelineConfig cfg;
  cfg.estimator = "qppnet";
  cfg.train.epochs = 3;
  cfg.pre_reduction_epochs = 2;
  cfg.snapshot_scale = 1;
  AsyncServeConfig serve_cfg;
  serve_cfg.max_batch = 64;
  serve_cfg.max_delay_micros = 1000;
  auto pipeline = ctx_->FitPipeline(cfg, train_);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();

  auto direct = (*pipeline)->PredictBatch(test_);
  ASSERT_TRUE(direct.ok());

  SwappableModel models(
      std::shared_ptr<const Pipeline>(std::move(pipeline.value())));
  FakeClock clock;
  std::unique_ptr<AsyncServer> server =
      Pipeline::ServeAsync(&models, serve_cfg, &clock);
  std::vector<std::future<Result<double>>> futures;
  futures.reserve(test_.size());
  for (const PlanSample& s : test_) {
    futures.push_back(server->Submit(*s.plan, s.env_id));
  }
  clock.Advance(serve_cfg.max_delay_micros);
  for (size_t i = 0; i < futures.size(); ++i) {
    Result<double> r = futures[i].get();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, (*direct)[i]) << " sample " << i;
  }
  server->Shutdown();
  EXPECT_GE(server->stats().batches_flushed, 1u);
}

}  // namespace
}  // namespace qcfe
