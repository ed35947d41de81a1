#ifndef QCFE_UTIL_THREAD_POOL_H_
#define QCFE_UTIL_THREAD_POOL_H_

/// \file thread_pool.h
/// The shared concurrency layer: a fork-join executor. One ThreadPool is
/// created per Pipeline (or per bench/test) and threaded through
/// collection, snapshot fitting, feature reduction, training and batched
/// serving. The pool runs exactly one kind of work, a ParallelFor loop:
/// the calling thread publishes the loop, runs bodies alongside the
/// workers, and returns once every index has run. The rules every parallel
/// call site in this project follows:
///
///  * Determinism first. Loop indices are claimed dynamically from a shared
///    counter, so which thread runs an index varies from run to run. Bits
///    never depend on that: every body writes only its own output slot,
///    callers reduce slots in index order, and stochastic bodies draw from
///    per-index RNG streams (Rng::Split). Any code built on
///    ParallelFor/ParallelMap therefore produces bit-identical results for
///    every thread count, including the inline serial path.
///  * Exceptions propagate. A body that throws does not crash a worker: the
///    exception is captured and rethrown on the calling thread. When several
///    indices throw, the lowest one wins, which is what the serial loop
///    would have surfaced first; indices above a recorded throw are skipped.
///  * Busy pools degrade to serial loops, never deadlock. A ParallelFor
///    issued from inside a body (on a worker or on the participating
///    caller) runs inline, and so does one issued by a second thread while
///    the pool is already running a loop. Helpers can therefore
///    parallelize unconditionally.
///  * The caller holds no ranked lock (util/sync.h). It runs loop bodies
///    itself, and those bodies may take ranked locks such as the database
///    execution cache's; dcheck builds abort on a violation.
///  * Idle workers block on a condition variable; there is no spinning and
///    no tuning knob.

#include <cstddef>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

namespace qcfe {

/// User-facing parallelism knob, threaded from the harness --threads flag
/// down through PipelineConfig to every parallel call site.
struct Parallelism {
  /// Unset (default) = inherit the surrounding default: serial, unless a
  /// harness context threads its --threads setting through. Explicit 1 =
  /// serial even when the context is parallel. 0 or negative = one worker
  /// per hardware thread. Above 1 = that many workers.
  std::optional<int> num_threads;
};

/// Resolves a Parallelism request to a concrete worker count (>= 1).
size_t ResolveNumThreads(int requested);

/// Splits [0, n) into at most `max_blocks` contiguous [begin, end) blocks,
/// the first n % k blocks one longer. Sharded serving paths use it when
/// they need one explicit state object (scratch buffers) per block and run
/// the blocks as ParallelFor indices.
std::vector<std::pair<size_t, size_t>> PartitionBlocks(size_t n,
                                                       size_t max_blocks);

/// Fork-join pool. A pool of N workers is N threads running each loop: the
/// calling thread plus N - 1 pool-owned threads.
class ThreadPool {
 public:
  /// Sizes the pool to `num_threads` workers; 0 or negative means one per
  /// hardware thread. Spawns one thread fewer, since the caller of each
  /// loop works too.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Threads that run a loop, the participating caller included.
  size_t num_workers() const;

  /// True on this pool's own threads, and on a caller while it runs this
  /// pool's loop bodies. ParallelFor runs a loop issued from such a thread
  /// inline.
  bool InWorkerThread() const;

 private:
  friend void ParallelFor(ThreadPool* pool, size_t n,
                          const std::function<void(size_t)>& fn);

  struct Impl;
  Impl* impl_;
};

/// Runs fn(i) for every i in [0, n) and returns once all have run. With a
/// usable pool the caller and the workers claim indices from a shared
/// counter. Runs inline (plain ascending loop) when `pool` is null, has
/// one worker, the range is empty or a single index, the caller is already
/// running this pool's bodies, or another thread's loop holds the pool.
/// The exception of the lowest throwing index is rethrown on the caller.
void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn);

/// ParallelFor producing a value per index, in index order. T must be
/// default-constructible; each task writes only its own slot.
template <typename T>
std::vector<T> ParallelMap(ThreadPool* pool, size_t n,
                           const std::function<T(size_t)>& fn) {
  std::vector<T> out(n);
  ParallelFor(pool, n, [&](size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace qcfe

#endif  // QCFE_UTIL_THREAD_POOL_H_
