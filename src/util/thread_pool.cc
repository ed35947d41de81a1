#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <limits>
#include <thread>

#include "util/sync.h"

namespace qcfe {

size_t ResolveNumThreads(int requested) {
  if (requested > 0) return static_cast<size_t>(requested);
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

std::vector<std::pair<size_t, size_t>> PartitionBlocks(size_t n,
                                                       size_t max_blocks) {
  std::vector<std::pair<size_t, size_t>> blocks;
  if (n == 0 || max_blocks == 0) return blocks;
  size_t k = std::min(max_blocks, n);
  size_t base = n / k;
  size_t rem = n % k;
  size_t begin = 0;
  for (size_t b = 0; b < k; ++b) {
    size_t end = begin + base + (b < rem ? 1 : 0);
    blocks.emplace_back(begin, end);
    begin = end;
  }
  return blocks;
}

namespace {

constexpr size_t kNoError = std::numeric_limits<size_t>::max();

/// Indices claimed per counter increment: about eight claims per thread, so
/// uneven bodies still balance while large cheap loops don't contend on
/// the counter for every index.
size_t ClaimGrain(size_t n, size_t threads) {
  return std::max<size_t>(1, n / (8 * threads));
}

}  // namespace

struct ThreadPool::Impl {
  /// One ParallelFor in flight. Lives on the caller's stack; workers reach
  /// it only between taking it from `job` and leaving `active`.
  struct Job {
    Job(const std::function<void(size_t)>* f, size_t count, size_t g)
        : fn(f), n(count), grain(g) {}

    const std::function<void(size_t)>* const fn;
    const size_t n;
    const size_t grain;
    std::atomic<size_t> next{0};
    /// Lowest index known to have thrown (kNoError if none). Written under
    /// error_mu; read relaxed by claimers to skip indices above it.
    std::atomic<size_t> error_index{kNoError};
    Mutex error_mu{lock_rank::kParallelForError};
    std::exception_ptr error QCFE_GUARDED_BY(error_mu);

    /// Claims and runs indices until the counter is exhausted.
    void Run() {
      for (;;) {
        const size_t begin = next.fetch_add(grain, std::memory_order_relaxed);
        if (begin >= n) return;
        const size_t end = std::min(begin + grain, n);
        for (size_t i = begin; i < end; ++i) {
          // A lower index already threw: the serial loop never gets here.
          if (i > error_index.load(std::memory_order_relaxed)) return;
          try {
            (*fn)(i);
          } catch (...) {
            MutexLock lock(&error_mu);
            if (i < error_index.load(std::memory_order_relaxed)) {
              error = std::current_exception();
              error_index.store(i, std::memory_order_relaxed);
            }
            return;
          }
        }
      }
    }
  };

  Mutex mu{lock_rank::kThreadPool};
  /// Workers wait here for a new job or shutdown.
  CondVar wake;
  /// The caller waits here for the last worker to leave its job.
  CondVar idle;
  Job* job QCFE_GUARDED_BY(mu) = nullptr;
  /// Bumped on every publish, so a worker joins each job at most once.
  uint64_t generation QCFE_GUARDED_BY(mu) = 0;
  /// Workers currently inside `job`.
  size_t active QCFE_GUARDED_BY(mu) = 0;
  bool shutting_down QCFE_GUARDED_BY(mu) = false;
  /// Set while a caller owns the pool for a loop; a second caller that
  /// finds it set runs its loop inline.
  std::atomic<bool> busy{false};
  size_t num_threads = 1;
  /// Written only during construction (before any external call can reach
  /// the pool) and joined in the destructor; not guarded.
  std::vector<std::thread> workers;

  void WorkerLoop();
  void Fork(size_t n, const std::function<void(size_t)>& fn);
};

namespace {

/// The pool whose bodies the calling thread is running: set for life on a
/// pool's own threads and for the loop's duration on a participating
/// caller.
thread_local const void* t_running_pool = nullptr;

}  // namespace

void ThreadPool::Impl::WorkerLoop() {
  t_running_pool = this;
  uint64_t seen = 0;
  for (;;) {
    Job* current = nullptr;
    {
      MutexLock lock(&mu);
      wake.Wait(&mu, [this, seen] {
        QCFE_ASSERT_HELD(mu);
        return shutting_down || (job != nullptr && generation != seen);
      });
      if (shutting_down) return;
      seen = generation;
      current = job;
      ++active;
    }
    current->Run();
    MutexLock lock(&mu);
    if (--active == 0) idle.NotifyOne();
  }
}

void ThreadPool::Impl::Fork(size_t n, const std::function<void(size_t)>& fn) {
  Job loop(&fn, n, ClaimGrain(n, num_threads));
  {
    MutexLock lock(&mu);
    job = &loop;
    ++generation;
  }
  wake.NotifyAll();

  const void* outer = t_running_pool;
  t_running_pool = this;
  loop.Run();
  t_running_pool = outer;

  {
    // Unpublish first so a late-waking worker goes back to sleep instead
    // of joining a finished loop, then wait out the ones still inside it.
    MutexLock lock(&mu);
    job = nullptr;
    idle.Wait(&mu, [this] {
      QCFE_ASSERT_HELD(mu);
      return active == 0;
    });
  }
  busy.store(false, std::memory_order_release);

  std::exception_ptr error;
  {
    MutexLock lock(&loop.error_mu);
    error = loop.error;
  }
  if (error != nullptr) std::rethrow_exception(error);
}

// pimpl: Impl is incomplete in the header, so the raw pointer is owned here
// and deleted by the destructor below.
// qcfe-lint: allow(no-naked-new)
ThreadPool::ThreadPool(int num_threads) : impl_(new Impl()) {
  impl_->num_threads = ResolveNumThreads(num_threads);
  impl_->workers.reserve(impl_->num_threads - 1);
  for (size_t i = 1; i < impl_->num_threads; ++i) {
    impl_->workers.emplace_back([this] { impl_->WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&impl_->mu);
    impl_->shutting_down = true;
  }
  impl_->wake.NotifyAll();
  for (auto& worker : impl_->workers) worker.join();
  delete impl_;  // qcfe-lint: allow(no-naked-new) — pimpl counterpart
}

size_t ThreadPool::num_workers() const { return impl_->num_threads; }

bool ThreadPool::InWorkerThread() const { return t_running_pool == impl_; }

void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  // Inline fallbacks: no pool, a one-worker pool, a trivial range, or a
  // nested call from a body of this pool (whose loop cannot finish until
  // this body returns).
  if (pool == nullptr || pool->num_workers() <= 1 || n == 1 ||
      pool->InWorkerThread()) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  QCFE_DCHECK(sync_internal::TopHeldRank() == kNoLockRank,
              "ParallelFor caller holds a ranked lock; the caller runs loop "
              "bodies, which may take ranked locks of their own");
  // Another thread's loop holds the pool: run this one inline rather than
  // queue behind it. Which thread runs an index never changes its bits.
  if (pool->impl_->busy.exchange(true, std::memory_order_acquire)) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  pool->impl_->Fork(n, fn);
}

}  // namespace qcfe
