/// Deterministic concurrency suite for the async micro-batching front end
/// (serve/async_server.h). Two layers:
///
///  * Fake-clock cut-point tests against a stub estimator, fitted into a
///    pipeline and published once like any served model: the caller-run
///    idle cut and its idle-time guard, the batch-full and deadline cuts
///    behind a batch in flight, backlog splitting, shutdown drain/cancel
///    semantics, per-request and throwing-model error isolation and
///    admission control — with zero sleeps. Time only moves when the test
///    (or a stub request that simulates a slow model call) calls
///    FakeClock::Advance, and a batch is in flight only while the test
///    holds the stub's flush gate (HeldBatch), so every cut decision is
///    forced, not raced.
///  * Multi-threaded stress tests against real fitted pipelines: N caller
///    threads submit randomized plans and every delivered result must be
///    bit-identical to a direct PredictBatchMs call on the same model,
///    across 1/2/4 flusher threads, repeated runs, a pooled generation and
///    a mix of caller-run and queued requests. Which micro-batch a request
///    lands in, and on which thread it is served, is scheduling-dependent;
///    the bits of its answer are not.
///
/// CI runs this suite under ThreadSanitizer and UBSan (see
/// .github/workflows/ci.yml), and repeats the fake-clock layer under
/// ThreadSanitizer, so queue/flush races and cut-timing assumptions that
/// hold only by scheduling luck fail the build.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <memory>
#include <stdexcept>
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
/// Requests for this environment simulate a slow model call: the stub
/// advances the registered FakeClock (SlowServeClock) by kSlowServeMicros
/// while it serves one.
constexpr int kSlowEnv = 1001;
constexpr int64_t kSlowServeMicros = 100;
/// Requests for this environment make the stub model throw.
constexpr int kThrowEnv = 1002;

/// The clock a kSlowEnv request advances; set by the test that uses it.
std::atomic<FakeClock*>& SlowServeClock() {
  static std::atomic<FakeClock*> clock{nullptr};
  return clock;
}

/// The thread the stub model last served a request on.
std::atomic<std::thread::id>& LastServingThread() {
  static std::atomic<std::thread::id> id{};
  return id;
}

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
  /// A leaf: held only inside the model (on a flusher or a caller-run
  /// submitter), with no server lock.
  Mutex mu_;
  CondVar cv_;
  bool open_ QCFE_GUARDED_BY(mu_) = true;
  bool entered_ QCFE_GUARDED_BY(mu_) = false;
};

/// Deterministic stub estimator: prediction is a pure function of the
/// request, and env_id < 0 simulates a poisoned request. A kGateEnv request
/// first waits at the flush gate, a kSlowEnv one advances the registered
/// clock and a kThrowEnv one throws. Every call records its thread. No
/// training and no database fixture, so the cut-point tests run in
/// milliseconds.
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
    LastServingThread() = std::this_thread::get_id();
    for (size_t i = begin; i < end; ++i) {
      if (requests[i].env_id == kGateEnv) FlushGate::Get()->Pass();
      if (requests[i].env_id == kSlowEnv) {
        SlowServeClock().load()->Advance(kSlowServeMicros);
      }
      if (requests[i].env_id == kThrowEnv) {
        throw std::runtime_error("stub model threw");
      }
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
/// idle server and returns once it is blocked in the model. An idle server
/// serves that request on the submitting thread (a caller-run idle cut), so
/// the submit runs on a helper thread, which stays inside Submit until the
/// gate opens; every flusher is left free. Declare it after the server: its
/// destructor opens the gate and joins the helper, so an early test exit
/// never leaves the server's shutdown waiting on it.
class HeldBatch {
 public:
  HeldBatch(AsyncServer* server, const PlanNode& plan) {
    FlushGate::Get()->Close();
    submitter_ = std::thread(
        [this, server, &plan] { reply_ = server->Submit(plan, kGateEnv); });
    FlushGate::Get()->WaitEntered();
  }
  ~HeldBatch() {
    FlushGate::Get()->Open();
    if (submitter_.joinable()) submitter_.join();
  }

  HeldBatch(const HeldBatch&) = delete;
  HeldBatch& operator=(const HeldBatch&) = delete;

  /// Lets the held batch finish and returns its reply. Call at most once.
  Result<double> Release() {
    FlushGate::Get()->Open();
    submitter_.join();
    return reply_.get();
  }

 private:
  std::future<Result<double>> reply_;
  std::thread submitter_;
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

  /// True when `f` was already fulfilled when Submit returned.
  static bool IsReady(const std::future<Result<double>>& f) {
    return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
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

  // Nothing is in flight, so the request is cut at once, alone: no
  // Advance, no full batch.
  Result<double> r = server.Submit(plan_, 3).get();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, Direct(plan_, 3));
  AsyncServeStats stats = server.stats();
  EXPECT_EQ(stats.batches_flushed, 1u);
  EXPECT_EQ(stats.idle_flushes, 1u);
  EXPECT_EQ(stats.caller_runs, 1u);
  EXPECT_EQ(stats.full_flushes, 0u);
  EXPECT_EQ(stats.deadline_flushes, 0u);
  EXPECT_EQ(stats.mean_occupancy, 1.0);
}

TEST_F(AsyncFakeClockTest, IdleSubmitRunsOnTheCallersThread) {
  AsyncServeConfig cfg;
  cfg.max_batch = 8;
  cfg.max_delay_micros = 1'000'000;
  AsyncServer server(models_, cfg, &clock_);

  // A fresh server is idle, and its last flush took no time: the request
  // is served inside Submit, on this thread, and no flusher touches it.
  std::future<Result<double>> f = server.Submit(plan_, 3);
  ASSERT_TRUE(IsReady(f));
  EXPECT_EQ(LastServingThread().load(), std::this_thread::get_id());
  Result<double> r = f.get();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, Direct(plan_, 3));

  // Time is frozen and every flush took 0 us, so the server stays idle
  // long enough: the next request runs inline too.
  std::future<Result<double>> g = server.Submit(other_plan_, 4);
  ASSERT_TRUE(IsReady(g));
  EXPECT_EQ(*g.get(), Direct(other_plan_, 4));
  AsyncServeStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.served, 2u);
  EXPECT_EQ(stats.caller_runs, 2u);
  EXPECT_EQ(stats.idle_flushes, 2u);
  EXPECT_EQ(stats.batches_flushed, 2u);
}

TEST_F(AsyncFakeClockTest, ARequestSoonerThanTheLastServiceTimeQueues) {
  AsyncServeConfig cfg;
  cfg.max_batch = 8;
  cfg.max_delay_micros = 1'000'000;
  AsyncServer server(models_, cfg, &clock_);
  SlowServeClock() = &clock_;

  // t=0: idle, so the slow request runs inline; serving it moves the clock
  // to t=100, and the server went idle at t=100 after a 100 us flush.
  std::future<Result<double>> first = server.Submit(plan_, kSlowEnv);
  ASSERT_TRUE(IsReady(first));
  EXPECT_EQ(LastServingThread().load(), std::this_thread::get_id());
  EXPECT_TRUE(first.get().ok());
  EXPECT_EQ(clock_.NowMicros(), kSlowServeMicros);

  // Same instant: idle for 0 us < 100 us, so this one queues and a flusher
  // serves it (again a 100 us flush, ending at t=200).
  Result<double> queued = server.Submit(plan_, kSlowEnv).get();
  EXPECT_TRUE(queued.ok());
  EXPECT_NE(LastServingThread().load(), std::this_thread::get_id());
  AsyncServeStats stats = server.stats();
  EXPECT_EQ(stats.caller_runs, 1u);
  EXPECT_EQ(stats.idle_flushes, 2u);

  // Once the server has been idle as long as its last flush took, the next
  // request runs inline again.
  clock_.Advance(kSlowServeMicros);
  std::future<Result<double>> after = server.Submit(plan_, 3);
  ASSERT_TRUE(IsReady(after));
  EXPECT_EQ(LastServingThread().load(), std::this_thread::get_id());
  EXPECT_EQ(*after.get(), Direct(plan_, 3));
  stats = server.stats();
  EXPECT_EQ(stats.caller_runs, 2u);
  EXPECT_EQ(stats.idle_flushes, 3u);
  EXPECT_EQ(stats.batches_flushed, 3u);
  server.Shutdown();
  SlowServeClock() = nullptr;
}

TEST_F(AsyncFakeClockTest, ShutdownWaitsForACallerRunInTheModel) {
  AsyncServeConfig cfg;
  cfg.max_batch = 8;
  cfg.max_delay_micros = 1'000'000;
  cfg.num_workers = 2;
  AsyncServer server(models_, cfg, &clock_);
  HeldBatch held(&server, plan_);  // in the model on its submitting thread

  // Shutdown joins both (free) flushers at once, but must not return while
  // the caller-run cut is still in FlushBatch.
  std::atomic<bool> returned{false};
  AsyncServeStats at_return;
  std::thread stopper([&] {
    server.Shutdown(AsyncServer::ShutdownMode::kDrain);
    at_return = server.stats();
    returned = true;
  });
  for (int i = 0; i < 1000 && !returned; ++i) std::this_thread::yield();
  EXPECT_FALSE(returned.load());

  ExpectReleased(&held);
  stopper.join();
  EXPECT_TRUE(returned.load());
  // The held cut had published its counters before Shutdown returned.
  EXPECT_EQ(at_return.batches_flushed, 1u);
  EXPECT_EQ(at_return.caller_runs, 1u);
  EXPECT_EQ(at_return.served, 1u);
}

TEST_F(AsyncFakeClockTest, ThrowingModelFailsOnlyItsOwnCut) {
  AsyncServeConfig cfg;
  cfg.max_batch = 3;
  cfg.max_delay_micros = 1'000'000;
  AsyncServer server(models_, cfg, &clock_);

  // Caller-run path: the throw fails this request with kInternal instead
  // of escaping Submit.
  std::future<Result<double>> inline_throw = server.Submit(plan_, kThrowEnv);
  ASSERT_TRUE(IsReady(inline_throw));
  Result<double> r = inline_throw.get();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);

  // Flusher path: the three requests behind the held batch are cut as one
  // full batch, and the throw fails all three (and not the flusher).
  {
    HeldBatch held(&server, plan_);
    auto a = server.Submit(plan_, 0);
    auto b = server.Submit(plan_, kThrowEnv);
    auto c = server.Submit(other_plan_, 1);
    for (auto* f : {&a, &b, &c}) {
      Result<double> failed = f->get();
      EXPECT_FALSE(failed.ok());
      EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
    }
    // The held batch is its own cut: the throw did not reach it.
    ExpectReleased(&held);
  }

  // Nothing is left in flight on either path: the next idle request still
  // runs inline, and the flusher is still alive to serve a queued one.
  std::future<Result<double>> after = server.Submit(plan_, 3);
  ASSERT_TRUE(IsReady(after));
  EXPECT_EQ(*after.get(), Direct(plan_, 3));
  {
    HeldBatch held(&server, plan_);
    auto queued = server.Submit(other_plan_, 5);
    ExpectReleased(&held);
    EXPECT_EQ(*queued.get(), Direct(other_plan_, 5));
  }
  AsyncServeStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 8u);
  EXPECT_EQ(stats.served, 8u);
  EXPECT_EQ(stats.failed, 4u);
  EXPECT_EQ(stats.batches_flushed, 6u);
  EXPECT_EQ(stats.caller_runs, 4u);
  EXPECT_EQ(stats.full_flushes, 1u);
  EXPECT_EQ(stats.idle_flushes, 5u);
}

TEST_F(AsyncFakeClockTest, RequestsQueuedBehindABatchInFlightComeBackAsOne) {
  AsyncServeConfig cfg;
  cfg.max_batch = 8;
  cfg.max_delay_micros = 1'000'000;
  AsyncServer server(models_, cfg, &clock_);
  HeldBatch held(&server, plan_);

  // The held batch is in the model: the five requests queue behind it, the
  // one flusher waits on the head's deadline, and they are cut together,
  // as one idle cut, the moment the held batch comes back.
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
  EXPECT_EQ(stats.caller_runs, 1u);  // the held batch
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
  // The backlog of 10 is cut 4 + 4 (full, by the flusher while the held
  // batch is in the model) + 2 (idle, once it is back), after the held
  // batch's own idle cut of 1.
  AsyncServeStats stats = server.stats();
  EXPECT_EQ(stats.served, 11u);
  EXPECT_EQ(stats.batches_flushed, 4u);
  EXPECT_EQ(stats.full_flushes, 2u);
  EXPECT_EQ(stats.idle_flushes, 2u);
  EXPECT_EQ(stats.deadline_flushes, 0u);
}

TEST_F(AsyncFakeClockTest, IdleCutFollowsTheLastBatchInFlight) {
  // Two flushers, both waiting on the head's deadline behind the held
  // batch; the deadline never comes. When the held batch comes back the
  // server is idle again, and the queue is cut at once, by either flusher.
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
  // A flusher cuts a full batch while the held batch is still in the
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
  // Drain with a batch in flight: a flusher serves the queue while the
  // held batch is still in the model.
  AsyncServeConfig cfg;
  cfg.max_batch = 8;
  cfg.max_delay_micros = 1'000'000;
  cfg.num_workers = 2;
  AsyncServer server(models_, cfg, &clock_);
  HeldBatch held(&server, plan_);

  std::vector<std::future<Result<double>>> futures;
  for (int env = 0; env < 3; ++env) futures.push_back(server.Submit(plan_, env));
  // Shutdown waits for the held batch: stop from a second thread.
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
  // Shutdown waits for the held batch: stop from a second thread. Cancel
  // fails the queue before it joins and waits.
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
  // The queue cannot shrink (a batch is in flight, the queue is not full
  // and its deadline never comes), so the third submission is
  // deterministically rejected, with the future ready immediately.
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
  // With the held batch in flight, the flushers cut every pair as a full
  // batch.
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
  // Three free flushers wait on the same head deadline; exactly one cuts.
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

TEST_F(AsyncStressTest, CallerRunsMixWithQueuedRequests) {
  // Each caller alternates one-at-a-time requests (submit, then wait:
  // the server is often idle, so many run on the caller's thread) with
  // bursts submitted back to back (each finds the server busy or only just
  // idle, so most queue for the flushers). Every answer must match
  // PredictMs bit for bit whichever thread served it, and the counters
  // must balance.
  constexpr size_t kCallers = 4;
  constexpr size_t kPerCaller = 96;
  constexpr size_t kBurst = 8;
  SwappableModel models(FittedPipeline("qppnet", 47));
  const Pipeline& direct = *models.Current();
  for (size_t workers : {size_t{1}, size_t{2}}) {
    std::vector<std::vector<PlanSample>> submissions(kCallers);
    std::vector<std::vector<double>> expected(kCallers);
    for (size_t c = 0; c < kCallers; ++c) {
      submissions[c] = CallerSamples(2000 + workers, c, kPerCaller);
      for (const PlanSample& s : submissions[c]) {
        Result<double> ms = direct.PredictMs(*s.plan, s.env_id);
        ASSERT_TRUE(ms.ok()) << ms.status().ToString();
        expected[c].push_back(*ms);
      }
    }

    AsyncServeConfig cfg;
    cfg.max_batch = 16;
    cfg.max_delay_micros = 200;
    cfg.num_workers = workers;
    cfg.max_queue = 0;
    AsyncServer server(&models, cfg);
    std::vector<std::vector<Result<double>>> got(kCallers);
    std::vector<std::thread> callers;
    callers.reserve(kCallers);
    for (size_t c = 0; c < kCallers; ++c) {
      callers.emplace_back([&, c] {
        const std::vector<PlanSample>& mine = submissions[c];
        for (size_t i = 0; i < mine.size();) {
          // Even rounds: one request at a time; odd rounds: one burst.
          const bool burst = (i / kBurst) % 2 == 1;
          const size_t end = std::min(mine.size(), i + kBurst);
          std::vector<std::future<Result<double>>> futures;
          for (; i < end; ++i) {
            futures.push_back(server.Submit(*mine[i].plan, mine[i].env_id));
            if (!burst) got[c].push_back(futures.back().get());
          }
          if (burst) {
            for (auto& f : futures) got[c].push_back(f.get());
          }
        }
      });
    }
    for (std::thread& t : callers) t.join();
    server.Shutdown(AsyncServer::ShutdownMode::kDrain);

    for (size_t c = 0; c < kCallers; ++c) {
      ASSERT_EQ(got[c].size(), kPerCaller);
      for (size_t i = 0; i < kPerCaller; ++i) {
        ASSERT_TRUE(got[c][i].ok()) << got[c][i].status().ToString();
        EXPECT_EQ(*got[c][i], expected[c][i])
            << "caller " << c << " sample " << i << " workers " << workers;
      }
    }
    const AsyncServeStats stats = server.stats();
    EXPECT_EQ(stats.submitted, kCallers * kPerCaller);
    EXPECT_EQ(stats.served, kCallers * kPerCaller);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(stats.rejected, 0u);
    EXPECT_EQ(stats.cancelled, 0u);
    EXPECT_EQ(stats.full_flushes + stats.idle_flushes +
                  stats.deadline_flushes + stats.drain_flushes,
              stats.batches_flushed);
    EXPECT_LE(stats.caller_runs, stats.idle_flushes);
    // The first request finds a fresh, idle server and always runs inline;
    // a burst of back-to-back submits from four callers cannot all find the
    // server idle, so flushers cut some batches too.
    EXPECT_GE(stats.caller_runs, 1u);
    EXPECT_LT(stats.caller_runs, stats.batches_flushed);
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
