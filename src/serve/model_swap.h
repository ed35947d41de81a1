#ifndef QCFE_SERVE_MODEL_SWAP_H_
#define QCFE_SERVE_MODEL_SWAP_H_

/// \file model_swap.h
/// Zero-downtime model replacement for a live serving process.
///
/// A SwappableModel is an RCU-style publication point: readers resolve the
/// current pipeline into a shared_ptr (a cheap reader-locked pointer copy),
/// then use it entirely lock-free; a writer publishes a replacement with one
/// pointer swap under the exclusive side of the same lock. In-flight
/// requests keep the version they resolved — a swap never tears a batch,
/// and the displaced pipeline is destroyed only after its last borrower
/// drops out (shared_ptr refcount, no quiescence protocol needed).
///
/// LoadAndSwap is the operational entry point: load an artifact
/// (Pipeline::Load, with all its fingerprint/corruption validation), warm
/// it with a parity probe, and only then publish. Any failure — unreadable
/// file, corrupt bytes, fingerprint mismatch, probe error, probe outputs
/// diverging from expectations — leaves the previously published model
/// serving untouched and bumps the server's rejected-swap counter. A swap
/// is all-or-nothing from the caller's point of view.
///
/// Locking: the publish lock ranks at lock_rank::kModelSwap, above the
/// AsyncServer queue (stats() reads the version while holding the queue
/// lock) and below nothing it calls — both sides are leaf acquisitions.
///
/// Callers: every AsyncServer serves through a SwappableModel, so a fitted
/// pipeline that never changes is simply published once
/// (examples/serving.cpp). Operators swap by hand (examples/hot_swap.cpp),
/// and the online adaptation loop (src/adapt/adaptation_controller.h)
/// publishes through LoadAndSwap automatically after each drift-triggered
/// background retrain.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "models/cost_model.h"
#include "util/status.h"
#include "util/sync.h"

namespace qcfe {

class AsyncServer;
class Database;
struct Environment;
class Fs;
class Pipeline;
struct QueryTemplate;

/// Atomically swappable reference to the currently serving pipeline.
/// Thread-safe: any number of readers may resolve while a writer publishes.
class SwappableModel {
 public:
  /// Starts empty (version 0, no model). Requests served off an empty
  /// SwappableModel fail with kFailedPrecondition until the first Publish.
  SwappableModel() = default;
  /// Starts with an initial pipeline at version 1.
  explicit SwappableModel(std::shared_ptr<const Pipeline> initial);

  SwappableModel(const SwappableModel&) = delete;
  SwappableModel& operator=(const SwappableModel&) = delete;

  /// The currently published pipeline (null before the first Publish) and,
  /// optionally, its version number. The returned shared_ptr pins the
  /// pipeline: it stays alive for this borrower even if a newer version is
  /// published immediately after.
  std::shared_ptr<const Pipeline> Current(uint64_t* version = nullptr) const
      QCFE_EXCLUDES(mu_);

  /// The current pipeline's model as an aliasing shared_ptr (the model is
  /// owned by its pipeline; the handle keeps the whole pipeline alive).
  /// Null before the first Publish. AsyncServer resolves Current() instead,
  /// because it also needs the generation's worker pool.
  std::shared_ptr<const CostModel> CurrentModel(
      uint64_t* version = nullptr) const QCFE_EXCLUDES(mu_);

  /// Atomically replaces the published pipeline; returns the new version
  /// number (1 for the first publish). Readers that already resolved keep
  /// the old version until they drop their handle.
  uint64_t Publish(std::shared_ptr<const Pipeline> next) QCFE_EXCLUDES(mu_);

  /// Version of the currently published pipeline (0 = none yet).
  uint64_t version() const QCFE_EXCLUDES(mu_);

 private:
  /// Readers resolve under the shared side; Publish takes the exclusive
  /// side for one pointer+counter store. Leaf on the write side: Publish
  /// never calls out while holding it.
  mutable SharedMutex mu_{lock_rank::kModelSwap};
  std::shared_ptr<const Pipeline> pipeline_ QCFE_GUARDED_BY(mu_);
  uint64_t version_ QCFE_GUARDED_BY(mu_) = 0;
};

/// Validation knobs for LoadAndSwap's pre-publish warm-up.
struct SwapOptions {
  /// Probe requests predicted through the candidate before it is published
  /// (exercises the full featurize+forward path, so the first real request
  /// never pays first-touch costs). Empty = no probe.
  std::vector<PlanSample> probe;
  /// Optional expected probe outputs, compared bit-exactly (positionally
  /// aligned with `probe`). Use predictions from the process that saved the
  /// artifact to prove the loaded model is the model that was saved.
  std::vector<double> expected;
};

/// Loads the artifact at `path` against db/envs/templates, warms it with
/// `options.probe`, and publishes it into `target`. On success returns the
/// newly published pipeline (also reachable via target->Current()) and, when
/// `server` is given, records the publish in its stats. On any failure the
/// previously published model keeps serving, the failure is recorded as a
/// rejected swap on `server`, and the typed load/validation error is
/// returned. `fs` is forwarded to Pipeline::Load (null = real file system).
Result<std::shared_ptr<const Pipeline>> LoadAndSwap(
    Database* db, const std::vector<Environment>* envs,
    const std::vector<QueryTemplate>* templates, const std::string& path,
    const SwapOptions& options, SwappableModel* target,
    AsyncServer* server = nullptr, Fs* fs = nullptr);

}  // namespace qcfe

#endif  // QCFE_SERVE_MODEL_SWAP_H_
