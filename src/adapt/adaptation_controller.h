#ifndef QCFE_ADAPT_ADAPTATION_CONTROLLER_H_
#define QCFE_ADAPT_ADAPTATION_CONTROLLER_H_

/// \file adaptation_controller.h
/// The "react" stage of the online adaptation loop: observe -> drift-detect
/// -> retrain -> swap, closed into one background controller.
///
/// Wiring (see examples/online_adaptation.cpp for the full picture):
///
///   AsyncServer::ReportObserved --> AdaptationController (listener)
///       -> ObservationSink (q-error windows + labeled retrain buffer)
///       -> DriftDetector (every evaluate_every observations per env)
///       -> on trip: background worker runs one adaptation cycle:
///            Pipeline::Retrain (warm-start, chunk-parallel, deterministic)
///            Pipeline::Save    (atomic, through the Fs seam)
///            LoadAndSwap       (bit-parity probe, then RCU publish)
///
/// Failure containment: a cycle that fails at any stage — too few buffered
/// samples, retrain error, save error, load/validation/probe rejection —
/// bumps exactly one typed counter and leaves the published serving model
/// untouched (LoadAndSwap is all-or-nothing; Save is atomic-rename). The
/// loop simply tries again on the next trip.
///
/// Threading: the trainer pipeline is mutated only by the controller's
/// single worker thread (or RunCycleNow), so it must be a dedicated,
/// never-published pipeline — the serving side only ever sees the fresh
/// generations LoadAndSwap loads from the artifact. Everything the
/// controller waits on is a plain condition variable, and all scheduling is
/// sample-count based, so tests drive the whole loop with zero sleeps and
/// no clock at all.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "adapt/drift_detector.h"
#include "adapt/observation_sink.h"
#include "core/pipeline.h"
#include "serve/async_server.h"
#include "serve/model_swap.h"
#include "util/status.h"
#include "util/sync.h"

namespace qcfe {

class Fs;

namespace adapt {

/// Knobs for one adaptation loop.
struct AdaptationConfig {
  /// Observation window/buffer capacities (ObservationSink).
  ObservationWindowConfig window;
  /// Drift thresholds, the same for every environment.
  DriftConfig drift;
  /// Warm-start retraining budget for each adaptation cycle
  /// (TrainConfig::chunk_size keeps it bit-deterministic at any thread
  /// count).
  TrainConfig retrain;
  /// Evaluate drift every Nth observation of an environment (sample-count
  /// epochs — no wall clock).
  size_t evaluate_every = 16;
  /// A cycle refuses to retrain on fewer buffered labeled samples.
  size_t min_retrain_samples = 32;
  /// Where each cycle Save()s the retrained pipeline and LoadAndSwap loads
  /// it from. Required.
  std::string artifact_path;
  /// Bit-parity probe size for LoadAndSwap: the first N buffered samples
  /// are predicted by the trainer and must match the loaded candidate
  /// bit-exactly before it is published.
  size_t probe_size = 8;
  /// Optional hook invoked after each successful publish with the newly
  /// published pipeline and its version — runs on the cycle's thread with
  /// no controller lock held.
  std::function<void(const std::shared_ptr<const Pipeline>&, uint64_t)>
      on_publish;
};

/// Typed counters for the loop; every cycle outcome bumps exactly one of
/// the cycles_skipped/retrain_failures/save_failures/swaps_rejected/
/// swaps_published family.
struct AdaptationStats {
  uint64_t observations = 0;       ///< tuples fed through OnObservation
  uint64_t windows_evaluated = 0;  ///< drift evaluations run
  uint64_t drift_trips = 0;        ///< evaluations that said "drifted"
  uint64_t cycles_started = 0;     ///< adaptation cycles entered
  uint64_t cycles_skipped = 0;     ///< refused: too few samples / bad config
  uint64_t retrain_failures = 0;   ///< Pipeline::Retrain failed
  uint64_t save_failures = 0;      ///< Pipeline::Save failed (old artifact kept)
  uint64_t swaps_rejected = 0;     ///< LoadAndSwap rejected (old model serving)
  uint64_t swaps_published = 0;    ///< new model versions published
  uint64_t model_version = 0;      ///< version of the last publish
};

/// Closes the adaptation loop around a trainer pipeline and a publication
/// point; see the file comment. Implements ObservationListener so it plugs
/// straight into AsyncServer::set_observation_listener. Thread-safe; lock
/// rank lock_rank::kAdaptController (never held across retrain/save/swap).
class AdaptationController : public ObservationListener {
 public:
  /// `trainer` is the mutable pipeline cycles retrain — dedicated to this
  /// controller, never published. `target` is the serving publication
  /// point. `server` (optional) receives swap accounting in its
  /// AsyncServeStats; `fs` (optional) is the I/O seam for Save/Load (null =
  /// real file system). All pointers are borrowed and must outlive the
  /// controller. The detector's baselines start from
  /// trainer->env_baseline_qerror().
  AdaptationController(Pipeline* trainer, SwappableModel* target,
                       const AdaptationConfig& config,
                       AsyncServer* server = nullptr, Fs* fs = nullptr);
  /// Stops the worker (pending trips are dropped).
  ~AdaptationController() override;

  AdaptationController(const AdaptationController&) = delete;
  AdaptationController& operator=(const AdaptationController&) = delete;

  /// Feeds the sink; every evaluate_every-th observation of an environment
  /// also runs drift detection and, on a trip, wakes the background worker
  /// (trips during a pending cycle coalesce into it).
  void OnObservation(const PlanNode& plan, int env_id, double predicted_ms,
                     double actual_ms) override;

  /// Runs one full adaptation cycle synchronously on the calling thread
  /// (waits for any background cycle first). The deterministic entry point
  /// for tests and for operators forcing a retrain.
  Status RunCycleNow();

  /// Blocks until no cycle is pending or running. Pure condition-variable
  /// wait — no sleeps, no clock.
  void WaitForIdle();

  /// Stops the background worker and joins it; idempotent, but must not be
  /// called concurrently with itself. OnObservation keeps accumulating
  /// afterwards; trips no longer start cycles (RunCycleNow still works).
  void Stop();

  AdaptationStats stats() const;
  /// Status of the most recently finished cycle (OK before any cycle ran).
  Status last_cycle_status() const;

  ObservationSink* sink() { return &sink_; }
  const AdaptationConfig& config() const { return config_; }

 private:
  void WorkerLoop();
  /// One retrain -> save -> swap cycle. Runs with no controller lock held;
  /// records its outcome in the typed counters.
  Status RunCycle();

  Pipeline* const trainer_;
  SwappableModel* const target_;
  AsyncServer* const server_;
  Fs* const fs_;
  const AdaptationConfig config_;
  ObservationSink sink_;
  DriftDetector detector_;

  mutable Mutex mu_{lock_rank::kAdaptController};
  CondVar cv_;
  bool stop_ QCFE_GUARDED_BY(mu_) = false;
  bool cycle_pending_ QCFE_GUARDED_BY(mu_) = false;
  bool cycle_running_ QCFE_GUARDED_BY(mu_) = false;
  AdaptationStats stats_ QCFE_GUARDED_BY(mu_);
  Status last_cycle_status_ QCFE_GUARDED_BY(mu_);

  std::thread worker_;
};

}  // namespace adapt
}  // namespace qcfe

#endif  // QCFE_ADAPT_ADAPTATION_CONTROLLER_H_
