#ifndef PERFBENCH_OPENLOOP_H_
#define PERFBENCH_OPENLOOP_H_

/// \file openloop.h
/// Open-loop request generator and collector for AsyncServer.
///
/// The calling thread is the generator: it sleeps (absolute-deadline
/// clock_nanosleep, never a spin) until each request is due, then submits
/// every request that is due. One collector thread blocks on the futures in
/// submission order and hands each reply to a callback. Latency is measured
/// from when a request was due, not from when it was sent, so a stalled
/// generator or server shows up in the latency of every request behind it.

#include <cstdint>
#include <functional>
#include <vector>

#include "models/cost_model.h"
#include "serve/async_server.h"
#include "trace.h"
#include "util/status.h"

namespace perfbench {

struct OpenLoopResult {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;    ///< served with a per-request error
  uint64_t rejected = 0;  ///< refused at admission (kUnavailable)
  /// Per request, in submission order: due -> future ready. Failed or
  /// rejected requests read +inf, so they miss every latency limit.
  std::vector<double> latency_ms;
  std::vector<double> gen_late_ms;  ///< due -> Submit entered
  std::vector<double> submit_us;    ///< Submit call duration
  std::vector<double> in_server_ms; ///< Submit returned -> future ready
};

/// Called on the collector thread, in submission order, once per request.
using ReplyFn =
    std::function<void(size_t seq, const qcfe::Result<double>& reply)>;

/// Offers `schedule.size()` requests at `rate_rps`, evenly spaced; request
/// `seq` is `requests[schedule[seq]]`. `submit_lane` (may be null) receives
/// one span per Submit. Returns once every future has been collected.
OpenLoopResult RunOpenLoop(qcfe::AsyncServer* server,
                           const std::vector<qcfe::PlanSample>& requests,
                           const std::vector<uint32_t>& schedule,
                           double rate_rps, Lane* submit_lane,
                           const ReplyFn& on_reply);

}  // namespace perfbench

#endif  // PERFBENCH_OPENLOOP_H_
