#ifndef QCFE_SERVE_ASYNC_SERVER_H_
#define QCFE_SERVE_ASYNC_SERVER_H_

/// \file async_server.h
/// Micro-batching serving front end over the pipeline generation a
/// SwappableModel publishes, flushing through CostModel::PredictBatchEach.
///
/// The batched prediction path pays off only when callers hand it whole
/// batches, but online traffic arrives one plan at a time from many
/// concurrent callers. AsyncServer bridges the two: Submit() enqueues a
/// single (plan, environment) request and returns a future; dedicated
/// flusher threads cut queued requests into micro-batches and fulfil every
/// future of a batch from one PredictBatchEach call.
///
/// The cut rule is work-conserving. While no cut batch is in the model, a
/// flusher cuts whatever is queued at once (up to `max_batch`): an idle
/// server never holds a request back. While a batch is in flight, requests
/// accumulate, and a flusher cuts on whichever comes first: the queue
/// reaching `max_batch`, the oldest queued request reaching its
/// `max_delay_micros` deadline, or the last in-flight batch coming back.
/// So batches grow exactly when the model is busy, which is when batching
/// pays, and a lone request costs one model call, not a deadline.
///
/// Caller-runs when idle. A request that finds the queue empty, nothing in
/// flight, and the server idle for at least as long as its last flush took
/// is served on the submitting thread, as a one-request idle cut, and
/// Submit returns a ready future: no flusher wake and no promise hand-off.
/// The idle-time guard keeps batching intact: back-to-back submits see
/// almost no idle time, so a steady stream still queues for the flushers
/// and is cut into micro-batches. The model never runs on a caller's
/// thread while the server is busy.
///
/// Contracts:
///  * Results are bit-identical to a direct PredictBatchMs / PredictMs call
///    on the serving generation's model. Which micro-batch a request lands
///    in is scheduling-dependent, but per-request arithmetic is independent
///    of co-batched requests, so batching is invisible in the output bits.
///  * Per-request status isolation: a request that cannot be served fails
///    its own future only; co-batched requests still succeed (see
///    CostModel::PredictBatchEach). A model call that throws fails every
///    request of its own cut with kInternal and ends neither the thread it
///    ran on nor the server.
///  * Admission control: when `max_queue` requests are already waiting,
///    Submit rejects immediately with StatusCode::kUnavailable instead of
///    letting the queue grow without bound.
///  * Clean shutdown: Shutdown(kDrain) serves everything already queued,
///    Shutdown(kCancel) fails queued requests with kUnavailable; both then
///    join the flusher threads and wait for a caller-run cut still in the
///    model, so no thread touches the server once Shutdown returns. The
///    destructor drains.
///  * Clock-injectable: all waiting goes through a Clock (util/clock.h), so
///    tests drive deadline flushes with FakeClock::Advance instead of
///    sleeps (and hold a batch in flight with a blocking test model to
///    make every cut point deterministic).
///  * Lock discipline is compiler-checked: the queue, shutdown flag and
///    stats are QCFE_GUARDED_BY(mu_), the batch-cut path is a
///    QCFE_REQUIRES(mu_) helper, and mu_ ranks below the clock's waiter
///    registry (see lock_rank in util/sync.h).

#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "models/cost_model.h"
#include "util/clock.h"
#include "util/status.h"
#include "util/sync.h"

namespace qcfe {

class SwappableModel;

/// Feedback interface for observed executions — the "observe" half of the
/// online adaptation loop (src/adapt). Serving callers that later learn a
/// request's true latency hand the (plan, env, predicted, actual) tuple
/// back through AsyncServer::ReportObserved, which forwards it here.
/// Implementations must be thread-safe: observations arrive from arbitrary
/// caller threads, and must not block for long (the canonical
/// implementation, ObservationSink, does O(1) ring updates).
class ObservationListener {
 public:
  virtual ~ObservationListener() = default;
  /// `plan` is only guaranteed alive for the duration of the call;
  /// implementations that keep it (e.g. as a retraining sample) must know
  /// the caller keeps the plan alive, as all in-repo drivers do.
  virtual void OnObservation(const PlanNode& plan, int env_id,
                             double predicted_ms, double actual_ms) = 0;
};

/// Micro-batcher tuning knobs.
struct AsyncServeConfig {
  /// Largest micro-batch: a cut takes at most this many requests, and a
  /// queue this long is cut at once even while another batch is in flight.
  size_t max_batch = 64;
  /// While another batch is in flight, a flusher that is free cuts a
  /// partial batch once its oldest request has waited this long. It bounds
  /// a wait only in that state, so only with num_workers >= 2: an idle
  /// server cuts at once, and a single flusher that is in the model is not
  /// waiting on any deadline (it cuts the moment it returns).
  int64_t max_delay_micros = 2000;
  /// Dedicated flusher threads. More than one lets the next micro-batch cut
  /// while a previous one is still in the model (on a full batch or on the
  /// head's max_delay deadline); results are identical either way.
  size_t num_workers = 1;
  /// Admission control: reject Submit with kUnavailable once this many
  /// requests are queued (not yet cut into a flushing batch). 0 = no limit.
  size_t max_queue = 4096;
};

/// Serving counters, all monotonically increasing except mean_occupancy
/// and model_version (which tracks the published version).
struct AsyncServeStats {
  uint64_t submitted = 0;         ///< requests accepted into the queue
  uint64_t rejected = 0;          ///< refused at admission (or post-shutdown)
  uint64_t cancelled = 0;         ///< queued requests failed by kCancel
  uint64_t served = 0;            ///< requests flushed through the model
  uint64_t failed = 0;            ///< served requests with per-request errors
  uint64_t batches_flushed = 0;
  uint64_t full_flushes = 0;      ///< flush reason: batch reached max_batch
  uint64_t idle_flushes = 0;      ///< flush reason: nothing else in flight
  /// Idle cuts served on the submitting thread (see Submit); each is also
  /// counted in idle_flushes, so the flush reasons sum to batches_flushed.
  uint64_t caller_runs = 0;
  uint64_t deadline_flushes = 0;  ///< flush reason: max_delay deadline
  uint64_t drain_flushes = 0;     ///< flush reason: shutdown drain
  double mean_occupancy = 0.0;    ///< served / batches_flushed
  // Hot-swap counters (serve/model_swap.h); the swap counters stay zero
  // for a generation published once.
  uint64_t swaps_published = 0;   ///< successful LoadAndSwap publishes
  uint64_t swaps_rejected = 0;    ///< LoadAndSwap failures (old model kept)
  uint64_t model_version = 0;     ///< version of the last publish/flush seen
  // Observation counters (the observe half of src/adapt); all zero until
  // callers use ReportObserved.
  uint64_t observations = 0;          ///< observations forwarded to a listener
  uint64_t observations_dropped = 0;  ///< observations with no listener set
  /// Observations refused as broken (see AsyncServer::ReportObserved).
  uint64_t observations_rejected = 0;
};

/// Largest measured latency, in milliseconds, that ReportObserved accepts.
/// 1e9 ms is about 11.6 days: no query this system executes or prices
/// comes near it (the benchmark workloads run in milliseconds to seconds),
/// so a larger `actual_ms` is a broken measurement, not a slow query. Left
/// in, such a label makes the drift window's q-error +inf and is rescaled
/// into every node of its plan in the retrain corpus.
constexpr double kMaxObservedMs = 1e9;

/// Request-queue front end over a SwappableModel (serve/model_swap.h).
/// Thread-safe: any number of caller threads may Submit concurrently.
/// A fitted pipeline is served by publishing it once; a hot-swapped one by
/// publishing each new generation. The SwappableModel and the clock are
/// not owned and must outlive the server.
class AsyncServer {
 public:
  /// Every cut batch is served by the generation current at flush time,
  /// resolved once per batch: a concurrent Publish never tears a batch
  /// across versions, and each request is answered by exactly one version.
  /// The batch is sharded across that generation's own worker pool
  /// (Pipeline::thread_pool(); a generation without one serves serially),
  /// which the resolved handle keeps alive for the whole flush. While no
  /// version is published yet, requests fail with kFailedPrecondition.
  /// `clock` null means the process-wide real clock.
  AsyncServer(const SwappableModel* models, const AsyncServeConfig& config,
              Clock* clock = nullptr);
  /// Drains outstanding work, then joins the flusher threads.
  ~AsyncServer();

  AsyncServer(const AsyncServer&) = delete;
  AsyncServer& operator=(const AsyncServer&) = delete;

  /// Submits one prediction request. The returned future becomes ready when
  /// the request's micro-batch flushes (or immediately, with
  /// kUnavailable, when admission control rejects or the server is shut
  /// down). The plan must outlive the future's completion.
  ///
  /// May run the model on the calling thread: a request that finds the
  /// server idle (queue empty, nothing in flight, and idle for at least as
  /// long as its last flush took) is served here, as a one-request idle
  /// cut, and the returned future is already ready. Never while the server
  /// is busy: every other request is queued for the flusher threads.
  std::future<Result<double>> Submit(const PlanNode& plan, int env_id);

  enum class ShutdownMode {
    kDrain,   ///< serve everything already queued, then stop
    kCancel,  ///< fail queued requests with kUnavailable, then stop
  };

  /// Stops the server and joins its flusher threads. Idempotent; the first
  /// call's mode wins. Submit after shutdown rejects with kUnavailable.
  void Shutdown(ShutdownMode mode = ShutdownMode::kDrain);

  /// Snapshot of the serving counters (consistent: taken under the queue
  /// lock, and flush counters are published before the batch's futures).
  AsyncServeStats stats() const;

  /// Swap accounting, called by LoadAndSwap (serve/model_swap.h). Publishes
  /// bump swaps_published and advance model_version; rejections only bump
  /// swaps_rejected — the old version keeps serving.
  void RecordSwapPublished(uint64_t version);
  void RecordSwapRejected();

  /// Attaches (or detaches, with null) the observation listener that
  /// ReportObserved forwards to. The listener is not owned and must outlive
  /// the server or be detached first.
  void set_observation_listener(ObservationListener* listener);

  /// Reports one observed execution: the caller predicted `predicted_ms`
  /// for (plan, env_id) and later measured `actual_ms`. Forwards to the
  /// attached listener *outside* the queue lock (listeners may do real
  /// work) and bumps `observations`; with no listener attached the tuple is
  /// counted in `observations_dropped` and discarded. A broken
  /// observation never reaches the listener and is counted in
  /// `observations_rejected` instead: an `actual_ms` that is NaN, not
  /// positive or above kMaxObservedMs, or a `predicted_ms` that is not
  /// finite. Thread-safe.
  void ReportObserved(const PlanNode& plan, int env_id, double predicted_ms,
                      double actual_ms);

  const AsyncServeConfig& config() const { return config_; }

 private:
  /// kCallerRun is an idle cut served on the submitting thread.
  enum class FlushReason { kFull, kIdle, kCallerRun, kDeadline, kDrain };

  struct Pending {
    PlanSample sample;
    int64_t enqueued_micros = 0;
    std::promise<Result<double>> promise;
  };

  void WorkerLoop();
  /// Saturating deadline of the queue head: head enqueue time plus the
  /// configured max delay, or kNoDeadline when that addition would
  /// overflow (a huge max_delay_micros is a caller's way of asking for
  /// batch-full-only flushing).
  int64_t HeadFlushDeadlineLocked() const QCFE_REQUIRES(mu_);
  /// Cuts up to max_batch requests off the queue head, counts the batch in
  /// flight and hands leftover work to a sibling flusher. The queue must be
  /// non-empty.
  std::vector<Pending> CutBatchLocked() QCFE_REQUIRES(mu_);
  /// Serves one cut batch outside the queue lock, takes it out of flight
  /// and fulfils its promises. Runs on a flusher, or on the submitting
  /// thread for a caller-run cut.
  void FlushBatch(std::vector<Pending>* batch, FlushReason reason)
      QCFE_EXCLUDES(mu_);

  const SwappableModel* const models_;
  const AsyncServeConfig config_;
  Clock* clock_;

  /// Ranked below the clock's waiter registry: WorkerLoop holds mu_ while
  /// WaitUntil registers with a FakeClock.
  mutable Mutex mu_{lock_rank::kAsyncServerQueue};
  CondVar cv_;
  std::deque<Pending> queue_ QCFE_GUARDED_BY(mu_);
  /// Cut batches not yet back from the model. Zero means the server is
  /// idle, and a non-empty queue is then cut at once.
  size_t in_flight_ QCFE_GUARDED_BY(mu_) = 0;
  /// When the server last went idle (in_flight_ fell to 0), and how long
  /// the last flush's model call took, both on clock_. Submit serves a
  /// request inline only once the server has been idle at least that long.
  int64_t idle_since_micros_ QCFE_GUARDED_BY(mu_) = 0;
  int64_t last_service_micros_ QCFE_GUARDED_BY(mu_) = 0;
  bool shutdown_ QCFE_GUARDED_BY(mu_) = false;
  AsyncServeStats stats_ QCFE_GUARDED_BY(mu_);
  ObservationListener* listener_ QCFE_GUARDED_BY(mu_) = nullptr;

  std::once_flag join_once_;
  std::vector<std::thread> workers_;
};

}  // namespace qcfe

#endif  // QCFE_SERVE_ASYNC_SERVER_H_
