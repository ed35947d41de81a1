#include "serve/async_server.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

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

AsyncServeConfig Normalize(const AsyncServeConfig& config) {
  AsyncServeConfig c = config;
  if (c.max_batch == 0) c.max_batch = 1;
  if (c.num_workers == 0) c.num_workers = 1;
  if (c.max_delay_micros < 0) c.max_delay_micros = 0;
  return c;
}

}  // namespace

AsyncServer::AsyncServer(const CostModel* model, const AsyncServeConfig& config,
                         Clock* clock, ThreadPool* pool)
    : model_(model),
      swappable_(nullptr),
      config_(Normalize(config)),
      clock_(clock != nullptr ? clock : Clock::Real()),
      pool_(pool) {
  StartWorkers();
}

AsyncServer::AsyncServer(const SwappableModel* models,
                         const AsyncServeConfig& config, Clock* clock)
    : model_(nullptr),
      swappable_(models),
      config_(Normalize(config)),
      clock_(clock != nullptr ? clock : Clock::Real()),
      pool_(nullptr) {
  StartWorkers();
}

void AsyncServer::StartWorkers() {
  workers_.reserve(config_.num_workers);
  for (size_t i = 0; i < config_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

AsyncServer::~AsyncServer() { Shutdown(ShutdownMode::kDrain); }

std::future<Result<double>> AsyncServer::Submit(const PlanNode& plan,
                                                int env_id) {
  {
    MutexLock lock(&mu_);
    if (shutdown_) {
      ++stats_.rejected;
    } else if (config_.max_queue > 0 && queue_.size() >= config_.max_queue) {
      ++stats_.rejected;
      return ReadyError(Status::Unavailable(
          "admission control: serving queue full (" +
          std::to_string(config_.max_queue) + " requests waiting)"));
    } else {
      Pending pending;
      pending.sample = {&plan, env_id, 0.0};
      pending.enqueued_micros = clock_->NowMicros();
      // Queue-state invariant: enqueue times are non-decreasing (pushes are
      // serialized under mu_ and the clock is monotonic). The deadline-flush
      // logic reads only the head's time on the strength of this.
      QCFE_DCHECK(queue_.empty() ||
                      pending.enqueued_micros >= queue_.back().enqueued_micros,
                  "AsyncServer queue enqueue times went backwards");
      std::future<Result<double>> future = pending.promise.get_future();
      queue_.push_back(std::move(pending));
      ++stats_.submitted;
      // Flushers only need to learn about two transitions: a new queue head
      // (its deadline starts the next flush timer) and a full batch.
      if (queue_.size() == 1 || queue_.size() >= config_.max_batch) {
        cv_.NotifyAll();
      }
      return future;
    }
  }
  return ReadyError(
      Status::Unavailable("async server is shut down; request rejected"));
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
  // Every caller enters with work to cut: batch-full and deadline imply a
  // non-empty queue, and the drain path returns before cutting when the
  // queue is empty.
  QCFE_DCHECK(take >= 1, "AsyncServer cut an empty batch");
  std::vector<Pending> batch;
  batch.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  // Leftover work (several full batches queued at once): hand it to a
  // sibling flusher before this thread disappears into the model.
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
        const int64_t head_enqueued = queue_.front().enqueued_micros;
        const int64_t deadline = HeadFlushDeadlineLocked();
        if (clock_->NowMicros() >= deadline) {
          reason = FlushReason::kDeadline;
          break;
        }
        // Wait out the head request's deadline; wake early on a full batch,
        // shutdown, or another worker having cut the head out from under us
        // (its deadline no longer governs).
        clock_->WaitUntil(&cv_, &mu_, deadline, [this, head_enqueued] {
          QCFE_ASSERT_HELD(mu_);
          return queue_.size() >= config_.max_batch || shutdown_ ||
                 queue_.empty() ||
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

  // Resolve the model exactly once per cut batch, before taking mu_. The
  // handle pins the resolved pipeline generation for the whole flush, so a
  // concurrent Publish can neither tear this batch across versions nor
  // destroy the model under it.
  const CostModel* model = model_;
  std::shared_ptr<const CostModel> held;
  uint64_t version = 0;
  if (swappable_ != nullptr) {
    held = swappable_->CurrentModel(&version);
    model = held.get();
  }
  if (model == nullptr) {
    {
      MutexLock lock(&mu_);
      ++stats_.batches_flushed;
      stats_.served += batch->size();
      stats_.failed += batch->size();
      switch (reason) {
        case FlushReason::kFull:
          ++stats_.full_flushes;
          break;
        case FlushReason::kDeadline:
          ++stats_.deadline_flushes;
          break;
        case FlushReason::kDrain:
          ++stats_.drain_flushes;
          break;
      }
    }
    for (Pending& p : *batch) {
      p.promise.set_value(Result<double>(Status::FailedPrecondition(
          "no model version has been published to this server yet")));
    }
    return;
  }

  std::vector<CostModel::BatchPrediction> results =
      model->PredictBatchEach(samples, pool_);
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
    ++stats_.batches_flushed;
    stats_.served += batch->size();
    stats_.failed += failures;
    if (swappable_ != nullptr) stats_.model_version = version;
    // Counter conservation: every served or cancelled request was admitted.
    QCFE_DCHECK(stats_.served + stats_.cancelled <= stats_.submitted,
                "AsyncServer served/cancelled more requests than submitted");
    switch (reason) {
      case FlushReason::kFull:
        ++stats_.full_flushes;
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
