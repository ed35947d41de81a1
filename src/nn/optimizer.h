#ifndef QCFE_NN_OPTIMIZER_H_
#define QCFE_NN_OPTIMIZER_H_

/// \file optimizer.h
/// First-order optimizers over (param, grad) pairs, plus the caller-owned
/// gradient accumulator (GradSink) that tape-based backprop writes into.
/// Adam is the default for both estimators, matching the reference
/// QPPNet/MSCN implementations.
///
/// Every per-batch phase that touches all parameter slots (the gradient
/// phase and the optimizer step) can fan out over a ThreadPool passed per
/// call, one slot (or row block of a slot) per ParallelFor index. Each
/// element's arithmetic is the serial loop's, so the pool changes wall
/// time, never bits.

#include <functional>
#include <memory>
#include <vector>

#include "nn/matrix.h"
#include "util/status.h"

namespace qcfe {

class ByteReader;
class ByteWriter;
class ThreadPool;

/// A caller-owned set of parameter-gradient accumulators, shaped like some
/// network's Grads() list. Tape-based Mlp::Backward adds into a sink
/// instead of mutating shared state, so each training chunk can own one:
/// chunks backprop concurrently into private sinks, and the reduction adds
/// the sinks into the optimizer-bound gradients in fixed chunk order —
/// which is what makes chunk-parallel training bit-identical at any thread
/// count.
class GradSink {
 public:
  /// Shapes one zeroed accumulator per entry of `grads` (typically
  /// Mlp::Grads()). Reuses existing allocations whenever the shapes fit,
  /// so per-batch reinitialisation of a warm sink is a pure zeroing pass —
  /// the sink-backed half of the allocation-free backward (the register-
  /// resident accumulate kernels in nn/kernels.h add straight into these
  /// slots).
  void InitLike(const std::vector<Matrix*>& grads);

  /// Adds the accumulators into `grads` (same layout as InitLike). This is
  /// the chunk-order reduction into the optimizer-bound gradients.
  void AddTo(const std::vector<Matrix*>& grads) const;

  size_t size() const { return grads_.size(); }
  Matrix& slot(size_t i) { return grads_[i]; }
  const Matrix& slot(size_t i) const { return grads_[i]; }
  /// Contiguous accumulator pointers (size() entries), rebuilt by
  /// InitLike; lets backprop slice per-layer views without allocating.
  Matrix* const* slots() { return slot_ptrs_.data(); }

 private:
  std::vector<Matrix> grads_;
  std::vector<Matrix*> slot_ptrs_;
};

/// Base optimizer bound to a fixed set of parameter/gradient pairs.
class Optimizer {
 public:
  Optimizer(std::vector<Matrix*> params, std::vector<Matrix*> grads)
      : params_(std::move(params)), grads_(std::move(grads)) {}
  virtual ~Optimizer() = default;

  /// Applies one update using the currently accumulated gradients. With a
  /// pool the update runs one parameter slot per task; null runs the plain
  /// loop. Both are bit-identical. A gradient norm that is not finite
  /// (checked when the optimizer computes one) is kNumericError, and no
  /// parameter or optimizer state changes.
  virtual Status Step(ThreadPool* pool = nullptr) = 0;

  /// Zeroes all bound gradients.
  void ZeroGrad() {
    for (Matrix* g : grads_) g->Fill(0.0);
  }

  /// One task of the gradient phase: rows [row_begin, row_end) of
  /// bound-gradient slot `slot`.
  struct GradBlock {
    size_t slot = 0;
    size_t row_begin = 0;
    size_t row_end = 0;
  };
  /// Adds the rows of `block` into the block's bound gradient `grad`.
  /// Those rows arrive zeroed, and no other row may be touched.
  using BlockFill = std::function<void(const GradBlock& block, Matrix* grad)>;

  /// The gradient phase of data-parallel training, with ZeroGrad folded
  /// in. `blocks` must cover every row of every bound gradient exactly
  /// once. One task per block zeroes the block's rows and calls fill(block,
  /// grad); with a pool, blocks run concurrently, so splitting a large
  /// gradient into row blocks balances the phase without changing a bit.
  /// `slot_sq` (optional) receives each slot's sum of squares, its
  /// blocks' sums added in block order, for AdamOptimizer::Step's clip
  /// check (which uses them only as a bound).
  void SetGrads(const std::vector<GradBlock>& blocks, const BlockFill& fill,
                ThreadPool* pool, std::vector<double>* slot_sq = nullptr);

  /// Accumulator `chunk`'s contribution to bound-gradient slot `slot`, or
  /// null when that chunk never touched the slot.
  using ChunkPart = std::function<const Matrix*(size_t slot, size_t chunk)>;

  /// The chunk reduction of sink-based training: SetGrads with every bound
  /// gradient set to 0 + part(s, 0) + part(s, 1) + ... over the non-null
  /// parts, in chunk order. That is exactly ZeroGrad followed by adding
  /// each chunk's GradSink in chunk order.
  void ReduceChunks(size_t num_chunks, const ChunkPart& part,
                    ThreadPool* pool, std::vector<double>* slot_sq = nullptr);

 protected:
  std::vector<Matrix*> params_;
  std::vector<Matrix*> grads_;
};

/// Stochastic gradient descent with classical momentum.
class SgdOptimizer : public Optimizer {
 public:
  SgdOptimizer(std::vector<Matrix*> params, std::vector<Matrix*> grads,
               double lr, double momentum = 0.0);
  Status Step(ThreadPool* pool = nullptr) override;

  void set_lr(double lr) { lr_ = lr; }
  double lr() const { return lr_; }

 private:
  double lr_;
  double momentum_;
  std::vector<Matrix> velocity_;
};

/// Adam (Kingma & Ba) with bias correction.
class AdamOptimizer : public Optimizer {
 public:
  AdamOptimizer(std::vector<Matrix*> params, std::vector<Matrix*> grads,
                double lr, double beta1 = 0.9, double beta2 = 0.999,
                double eps = 1e-8);
  /// Clips (when enabled) and updates. Whenever clipping may apply, the
  /// clip norm is summed serially in slot order, skipping all-zero slots
  /// (they add exactly +0), so it is the same number with or without a
  /// pool. Per-slot sums of squares, taken in parallel, first skip that
  /// chain when they prove the norm inside the clip radius.
  Status Step(ThreadPool* pool = nullptr) override;
  /// Step for gradients whose per-slot sums of squares are already known
  /// (ReduceChunks returns them), saving a pass over the gradients.
  Status Step(ThreadPool* pool, const std::vector<double>& slot_sq);

  void set_lr(double lr) { lr_ = lr; }
  double lr() const { return lr_; }

  /// Global-norm gradient clipping (0 disables). Stabilises the
  /// plan-structured training where rare deep plans can spike gradients.
  void set_clip_norm(double clip) { clip_norm_ = clip; }

  /// Serializes hyperparameters, step count and first/second-moment slots
  /// for model artifacts (core/artifact.h), so a loaded model's next Step
  /// is bit-identical to the never-persisted original's (warm-start
  /// retraining resumes mid-schedule, not from scratch).
  void SaveState(ByteWriter* w) const;
  /// Restores state saved by SaveState into an optimizer bound to the same
  /// parameter shapes. Slot-count or shape mismatch is kFailedPrecondition;
  /// truncated bytes are kDataLoss.
  Status LoadState(ByteReader* r);

 private:
  double lr_;
  double beta1_;
  double beta2_;
  double eps_;
  double clip_norm_ = 0.0;
  int64_t t_ = 0;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
};

}  // namespace qcfe

#endif  // QCFE_NN_OPTIMIZER_H_
