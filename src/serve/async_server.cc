#include "serve/async_server.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "serve/model_swap.h"
#include "util/check.h"

namespace qcfe {

namespace {

std::future<Result<double>> ReadyError(Status status) {
  std::promise<Result<double>> promise;
  std::future<Result<double>> future = promise.get_future();
  promise.set_value(Result<double>(std::move(status)));
  return future;
}

/// Serves one cut on `gen`. A model call that throws fails every request of
/// the cut with kInternal: left to escape, it would end the flusher (and the
/// process) or unwind a caller-run cut out of Submit with the server's
/// in-flight count still raised, which would stop every later idle cut.
std::vector<CostModel::BatchPrediction> ServeCut(
    const Pipeline* gen, const std::vector<PlanSample>& samples) {
  auto fail_all = [&samples](Status status) {
    return std::vector<CostModel::BatchPrediction>(samples.size(),
                                                   {std::move(status), 0.0});
  };
  if (gen == nullptr) {
    return fail_all(Status::FailedPrecondition(
        "no model version has been published to this server yet"));
  }
  try {
    return gen->model().PredictBatchEach(samples, gen->thread_pool());
  } catch (const std::exception& e) {
    return fail_all(Status::Internal(std::string("model call threw: ") +
                                     e.what()));
  } catch (...) {
    return fail_all(
        Status::Internal("model call threw a non-standard exception"));
  }
}

AsyncServeConfig Normalize(const AsyncServeConfig& config) {
  AsyncServeConfig c = config;
  if (c.max_batch == 0) c.max_batch = 1;
  if (c.num_workers == 0) c.num_workers = 1;
  if (c.max_delay_micros < 0) c.max_delay_micros = 0;
  return c;
}

}  // namespace

AsyncServer::AsyncServer(const SwappableModel* models,
                         const AsyncServeConfig& config, Clock* clock)
    : models_(models),
      config_(Normalize(config)),
      clock_(clock != nullptr ? clock : Clock::Real()),
      idle_since_micros_(clock_->NowMicros()) {
  workers_.reserve(config_.num_workers);
  for (size_t i = 0; i < config_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

AsyncServer::~AsyncServer() { Shutdown(ShutdownMode::kDrain); }

std::future<Result<double>> AsyncServer::Submit(const PlanNode& plan,
                                                int env_id) {
  std::vector<Pending> caller_run;
  std::future<Result<double>> future;
  bool notify = false;
  {
    MutexLock lock(&mu_);
    if (shutdown_) {
      ++stats_.rejected;
      return ReadyError(
          Status::Unavailable("async server is shut down; request rejected"));
    }
    if (config_.max_queue > 0 && queue_.size() >= config_.max_queue) {
      ++stats_.rejected;
      return ReadyError(Status::Unavailable(
          "admission control: serving queue full (" +
          std::to_string(config_.max_queue) + " requests waiting)"));
    }
    Pending pending;
    pending.sample = {&plan, env_id, 0.0};
    pending.enqueued_micros = clock_->NowMicros();
    future = pending.promise.get_future();
    ++stats_.submitted;
    // Caller-runs when idle: with nothing queued or in the model, a flusher
    // would cut this request alone anyway, so serve it here and skip both
    // thread hops. Only once the server has been idle for as long as its
    // last flush took: a request arriving sooner is part of a stream that
    // batching serves better, so it goes to the flushers.
    if (queue_.empty() && in_flight_ == 0 &&
        pending.enqueued_micros - idle_since_micros_ >=
            last_service_micros_) {
      ++in_flight_;
      caller_run.push_back(std::move(pending));
    } else {
      // Queue-state invariant: enqueue times are non-decreasing (pushes
      // are serialized under mu_ and the clock is monotonic). The
      // deadline-flush logic reads only the head's time on the strength of
      // this.
      QCFE_DCHECK(
          queue_.empty() ||
              pending.enqueued_micros >= queue_.back().enqueued_micros,
          "AsyncServer queue enqueue times went backwards");
      queue_.push_back(std::move(pending));
      // Flushers only need to learn about two transitions: a new queue
      // head (an idle flusher cuts it at once; otherwise its deadline
      // starts the next flush timer) and a full batch.
      notify = queue_.size() == 1 || queue_.size() >= config_.max_batch;
    }
  }
  if (!caller_run.empty()) {
    FlushBatch(&caller_run, FlushReason::kCallerRun);
  } else if (notify) {
    // After the unlock, so the woken flusher does not block on the mu_
    // this thread still holds.
    cv_.NotifyAll();
  }
  return future;
}

int64_t AsyncServer::HeadFlushDeadlineLocked() const {
  const int64_t head_enqueued = queue_.front().enqueued_micros;
  // Saturating add: a huge max_delay_micros must disable the deadline, not
  // overflow into signed UB.
  return head_enqueued > Clock::kNoDeadline - config_.max_delay_micros
             ? Clock::kNoDeadline
             : head_enqueued + config_.max_delay_micros;
}

std::vector<AsyncServer::Pending> AsyncServer::CutBatchLocked() {
  const size_t take = std::min(queue_.size(), config_.max_batch);
  // Every caller enters with work to cut: every flush reason implies a
  // non-empty queue, and the drain path returns before cutting when the
  // queue is empty.
  QCFE_DCHECK(take >= 1, "AsyncServer cut an empty batch");
  std::vector<Pending> batch;
  batch.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  ++in_flight_;
  // Leftover work (a backlog longer than max_batch): hand it to a sibling
  // flusher before this thread disappears into the model. With this batch
  // in flight, the sibling cuts it on a full batch or the head's deadline.
  if (!queue_.empty()) cv_.NotifyAll();
  return batch;
}

void AsyncServer::WorkerLoop() {
  for (;;) {
    std::vector<Pending> batch;
    FlushReason reason = FlushReason::kFull;
    {
      MutexLock lock(&mu_);
      for (;;) {
        if (queue_.size() >= config_.max_batch) {
          reason = FlushReason::kFull;
          break;
        }
        if (shutdown_) {
          // kCancel shutdown empties the queue itself; drain mode serves
          // what is left, one (partial) batch per loop iteration.
          if (queue_.empty()) return;
          reason = FlushReason::kDrain;
          break;
        }
        if (queue_.empty()) {
          clock_->WaitUntil(&cv_, &mu_, Clock::kNoDeadline, [this] {
            QCFE_ASSERT_HELD(mu_);
            return !queue_.empty() || shutdown_;
          });
          continue;
        }
        // Work-conserving: with nothing in the model, waiting would only
        // add latency, so cut whatever is queued now.
        if (in_flight_ == 0) {
          reason = FlushReason::kIdle;
          break;
        }
        const int64_t head_enqueued = queue_.front().enqueued_micros;
        const int64_t deadline = HeadFlushDeadlineLocked();
        if (clock_->NowMicros() >= deadline) {
          reason = FlushReason::kDeadline;
          break;
        }
        // A batch is in flight: wait out the head request's deadline; wake
        // early on a full batch, shutdown, the last in-flight batch coming
        // back, or another worker having cut the head out from under us
        // (its deadline no longer governs).
        clock_->WaitUntil(&cv_, &mu_, deadline, [this, head_enqueued] {
          QCFE_ASSERT_HELD(mu_);
          return queue_.size() >= config_.max_batch || shutdown_ ||
                 in_flight_ == 0 || queue_.empty() ||
                 queue_.front().enqueued_micros != head_enqueued;
        });
      }
      batch = CutBatchLocked();
    }
    FlushBatch(&batch, reason);
  }
}

void AsyncServer::FlushBatch(std::vector<Pending>* batch, FlushReason reason) {
  std::vector<PlanSample> samples;
  samples.reserve(batch->size());
  for (const Pending& p : *batch) samples.push_back(p.sample);

  // Resolve the generation exactly once per cut batch, before taking mu_.
  // The handle pins it — model and worker pool — for the whole flush, so a
  // concurrent Publish can neither tear this batch across versions nor
  // destroy either under it.
  const int64_t service_begin = clock_->NowMicros();
  uint64_t version = 0;
  const std::shared_ptr<const Pipeline> gen = models_->Current(&version);
  const std::vector<CostModel::BatchPrediction> results =
      ServeCut(gen.get(), samples);
  const int64_t service_end = clock_->NowMicros();
  // The promise-fulfilment loop below indexes results positionally; a model
  // returning a short/long vector would fulfil the wrong futures.
  QCFE_CHECK(results.size() == batch->size(),
             "PredictBatchEach returned a result count different from its "
             "request count");

  size_t failures = 0;
  for (const CostModel::BatchPrediction& r : results) {
    if (!r.status.ok()) ++failures;
  }
  // Publish counters before fulfilling the futures, so an observer that
  // sees a completed request also sees its flush accounted for.
  {
    MutexLock lock(&mu_);
    QCFE_DCHECK(in_flight_ > 0, "AsyncServer flushed a batch it never cut");
    --in_flight_;
    last_service_micros_ = service_end - service_begin;
    if (in_flight_ == 0) {
      idle_since_micros_ = service_end;
      // The server just went idle. With work queued, a waiting flusher can
      // cut it now, while this thread is still fulfilling promises; after
      // shutdown, Shutdown may be waiting for this cut. Notified under mu_:
      // once a waiting Shutdown sees in_flight_ == 0 it may return and the
      // server be destroyed.
      if (!queue_.empty() || shutdown_) cv_.NotifyAll();
    }
    ++stats_.batches_flushed;
    stats_.served += batch->size();
    stats_.failed += failures;
    if (gen != nullptr) stats_.model_version = version;
    // Counter conservation: every served or cancelled request was admitted.
    QCFE_DCHECK(stats_.served + stats_.cancelled <= stats_.submitted,
                "AsyncServer served/cancelled more requests than submitted");
    switch (reason) {
      case FlushReason::kFull:
        ++stats_.full_flushes;
        break;
      case FlushReason::kCallerRun:
        ++stats_.caller_runs;
        ++stats_.idle_flushes;
        break;
      case FlushReason::kIdle:
        ++stats_.idle_flushes;
        break;
      case FlushReason::kDeadline:
        ++stats_.deadline_flushes;
        break;
      case FlushReason::kDrain:
        ++stats_.drain_flushes;
        break;
    }
  }
  for (size_t i = 0; i < batch->size(); ++i) {
    if (results[i].status.ok()) {
      (*batch)[i].promise.set_value(Result<double>(results[i].ms));
    } else {
      (*batch)[i].promise.set_value(Result<double>(results[i].status));
    }
  }
}

void AsyncServer::Shutdown(ShutdownMode mode) {
  std::vector<Pending> to_cancel;
  {
    MutexLock lock(&mu_);
    if (!shutdown_) {
      shutdown_ = true;
      // Cancel mode empties the queue here; requests already cut into a
      // flushing batch are still served either way. Drain mode leaves the
      // queue for the workers, which flush it before exiting.
      if (mode == ShutdownMode::kCancel) {
        to_cancel.reserve(queue_.size());
        while (!queue_.empty()) {
          to_cancel.push_back(std::move(queue_.front()));
          queue_.pop_front();
        }
        stats_.cancelled += to_cancel.size();
      }
    }
  }
  cv_.NotifyAll();
  for (Pending& p : to_cancel) {
    p.promise.set_value(Result<double>(Status::Unavailable(
        "async server shut down before the request was served")));
  }
  std::call_once(join_once_, [this] {
    for (std::thread& worker : workers_) worker.join();
  });
  // A caller-run cut is served on its submitting thread, which no join
  // waits for: wait until it has published its counters, so no thread
  // touches mu_ or stats_ once Shutdown returns.
  MutexLock lock(&mu_);
  cv_.Wait(&mu_, [this] {
    QCFE_ASSERT_HELD(mu_);
    return in_flight_ == 0;
  });
}

void AsyncServer::set_observation_listener(ObservationListener* listener) {
  MutexLock lock(&mu_);
  listener_ = listener;
}

void AsyncServer::ReportObserved(const PlanNode& plan, int env_id,
                                 double predicted_ms, double actual_ms) {
  // A measured latency outside (0, kMaxObservedMs] (NaN and +inf
  // included) or a non-finite prediction is a broken observation: it would
  // poison the drift window's q-errors and the retrain corpus.
  const bool valid = actual_ms > 0.0 && actual_ms <= kMaxObservedMs &&
                     std::isfinite(predicted_ms);
  ObservationListener* listener = nullptr;
  {
    MutexLock lock(&mu_);
    if (!valid) {
      ++stats_.observations_rejected;
      return;
    }
    if (listener_ == nullptr) {
      ++stats_.observations_dropped;
      return;
    }
    ++stats_.observations;
    listener = listener_;
  }
  // Deliver outside mu_: the listener updates its own structures (window
  // rings, drift state) and must not stall the flushers. The pointer read
  // under the lock stays valid because listeners outlive the server (or
  // detach first) per the set_observation_listener contract.
  listener->OnObservation(plan, env_id, predicted_ms, actual_ms);
}

void AsyncServer::RecordSwapPublished(uint64_t version) {
  MutexLock lock(&mu_);
  ++stats_.swaps_published;
  stats_.model_version = version;
}

void AsyncServer::RecordSwapRejected() {
  MutexLock lock(&mu_);
  ++stats_.swaps_rejected;
}

AsyncServeStats AsyncServer::stats() const {
  MutexLock lock(&mu_);
  AsyncServeStats out = stats_;
  out.mean_occupancy =
      out.batches_flushed > 0
          ? static_cast<double>(out.served) /
                static_cast<double>(out.batches_flushed)
          : 0.0;
  return out;
}

}  // namespace qcfe
