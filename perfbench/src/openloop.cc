#include "openloop.h"

#include <time.h>

#include <atomic>
#include <condition_variable>
#include <future>
#include <limits>
#include <mutex>
#include <thread>

namespace perfbench {

namespace {

/// steady_clock is CLOCK_MONOTONIC on Linux, so NowNs() and this sleep share
/// one time base.
void SleepUntilNs(int64_t deadline_ns) {
  timespec ts;
  ts.tv_sec = static_cast<time_t>(deadline_ns / 1000000000);
  ts.tv_nsec = static_cast<long>(deadline_ns % 1000000000);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

struct Slot {
  int64_t due_ns = 0;
  int64_t submit_begin_ns = 0;
  int64_t submit_end_ns = 0;
  std::future<qcfe::Result<double>> future;
};

/// Hand-off of submitted slots from the generator to the collector. The
/// generator publishes a count after every submit; the collector sleeps on
/// the condition variable only when it has caught up.
class Handoff {
 public:
  void Publish(size_t count) {
    published_.store(count);
    if (waiting_.load()) {
      std::lock_guard<std::mutex> lock(mu_);
      cv_.notify_one();
    }
  }
  void WaitFor(size_t count) {
    if (published_.load() >= count) return;
    std::unique_lock<std::mutex> lock(mu_);
    waiting_.store(true);
    cv_.wait(lock, [&] { return published_.load() >= count; });
    waiting_.store(false);
  }

 private:
  std::atomic<size_t> published_{0};
  std::atomic<bool> waiting_{false};
  std::mutex mu_;
  std::condition_variable cv_;
};

}  // namespace

OpenLoopResult RunOpenLoop(qcfe::AsyncServer* server,
                           const std::vector<qcfe::PlanSample>& requests,
                           const std::vector<uint32_t>& schedule,
                           double rate_rps, Lane* submit_lane,
                           const ReplyFn& on_reply) {
  const size_t n = schedule.size();
  OpenLoopResult out;
  out.latency_ms.assign(n, 0.0);
  out.gen_late_ms.assign(n, 0.0);
  out.submit_us.assign(n, 0.0);
  out.in_server_ms.assign(n, 0.0);
  std::vector<Slot> slots(n);
  Handoff handoff;

  std::thread collector([&] {
    for (size_t i = 0; i < n; ++i) {
      handoff.WaitFor(i + 1);
      Slot& slot = slots[i];
      slot.future.wait();
      const int64_t ready_ns = NowNs();
      qcfe::Result<double> reply = slot.future.get();
      if (reply.ok()) {
        ++out.ok;
        out.latency_ms[i] = static_cast<double>(ready_ns - slot.due_ns) * 1e-6;
      } else {
        if (reply.status().code() == qcfe::StatusCode::kUnavailable) {
          ++out.rejected;
        } else {
          ++out.failed;
        }
        out.latency_ms[i] = std::numeric_limits<double>::infinity();
      }
      out.in_server_ms[i] =
          static_cast<double>(ready_ns - slot.submit_end_ns) * 1e-6;
      on_reply(i, reply);
    }
  });

  const double period_ns = 1e9 / rate_rps;
  // Start a little in the future so the first request is not already late.
  const int64_t start_ns = NowNs() + 2000000;
  for (size_t i = 0; i < n; ++i) {
    Slot& slot = slots[i];
    slot.due_ns = start_ns + static_cast<int64_t>(static_cast<double>(i) * period_ns);
    if (NowNs() < slot.due_ns) SleepUntilNs(slot.due_ns);
    const qcfe::PlanSample& req = requests[schedule[i]];
    slot.submit_begin_ns = NowNs();
    slot.future = server->Submit(*req.plan, req.env_id);
    slot.submit_end_ns = NowNs();
    if (submit_lane != nullptr) {
      submit_lane->Add("serve.submit", slot.submit_begin_ns, slot.submit_end_ns,
                       i + 1);
    }
    out.gen_late_ms[i] =
        static_cast<double>(slot.submit_begin_ns - slot.due_ns) * 1e-6;
    out.submit_us[i] =
        static_cast<double>(slot.submit_end_ns - slot.submit_begin_ns) * 1e-3;
    handoff.Publish(i + 1);
  }
  collector.join();
  out.sent = n;
  return out;
}

}  // namespace perfbench
