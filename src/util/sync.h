#ifndef QCFE_UTIL_SYNC_H_
#define QCFE_UTIL_SYNC_H_

/// \file sync.h
/// The project's only sanctioned synchronization primitives: capability-
/// annotated wrappers over the standard library that make locking
/// discipline a compile-time property instead of a comment.
///
/// Three layers of enforcement stack on top of each other:
///
///  1. **Clang Thread Safety Analysis.** Every mutex here is a
///     `capability`, every guarded member is declared `QCFE_GUARDED_BY`,
///     and every must-hold helper is `QCFE_REQUIRES`. Under clang the
///     whole tree compiles with `-Werror=thread-safety
///     -Werror=thread-safety-beta` (CI `thread-safety` job), so touching
///     a guarded member without its lock — or holding a lock across a
///     call that excludes it — is a build break, not a TSan roll of the
///     dice. On other compilers the macros expand to nothing.
///  2. **Debug lock-rank checking.** A `Mutex`/`SharedMutex` may carry a
///     rank (see `lock_rank` below). Under `QCFE_ENABLE_DCHECKS`, a
///     thread-local stack of held ranks verifies that ranked locks are
///     acquired in strictly increasing rank order; an inversion aborts
///     naming both ranks. Release builds compile the bookkeeping out of
///     the inline `Lock`/`Unlock` paths entirely — a ranked mutex costs
///     exactly a `std::mutex` (tests/sync_test.cc proves both halves).
///  3. **The `no-raw-mutex` lint** (tools/qcfe_lint.py) confines
///     `std::mutex`/`std::condition_variable`/scoped-locker spellings to
///     this file, so new code cannot opt out by accident.
///
/// NOTE: unlike util/check.h, this header must NOT be included with a
/// per-TU `#define`/`#undef` of QCFE_ENABLE_DCHECKS: `Mutex::Lock` is an
/// inline function, and two TUs disagreeing about its body is an ODR
/// violation. The dcheck flag for this header is the build-level one.
/// tests/sync_release_tu.cc documents the consequence: release-mode
/// behaviour is runtime-queried via `LockRankCheckingEnabled()`, not
/// macro-forced.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <thread>

#include "util/check.h"

// ---------------------------------------------------------------------------
// Clang Thread Safety Analysis attribute macros. `QCFE_THREAD_ANNOTATION`
// expands to the attribute under clang and to nothing elsewhere, so GCC
// builds see plain classes.
// ---------------------------------------------------------------------------
#if defined(__clang__)
#define QCFE_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define QCFE_THREAD_ANNOTATION(x)
#endif

/// Declares a class to be a lockable capability ("mutex", "shared_mutex").
#define QCFE_CAPABILITY(x) QCFE_THREAD_ANNOTATION(capability(x))
/// Declares an RAII class that acquires in its ctor, releases in its dtor.
#define QCFE_SCOPED_CAPABILITY QCFE_THREAD_ANNOTATION(scoped_lockable)
/// Member may only be touched while holding the named capability.
#define QCFE_GUARDED_BY(x) QCFE_THREAD_ANNOTATION(guarded_by(x))
/// Pointee may only be touched while holding the named capability.
#define QCFE_PT_GUARDED_BY(x) QCFE_THREAD_ANNOTATION(pt_guarded_by(x))
/// Function requires the capability held (exclusively) on entry, and does
/// not release it.
#define QCFE_REQUIRES(...) \
  QCFE_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/// Function requires the capability held at least shared on entry.
#define QCFE_REQUIRES_SHARED(...) \
  QCFE_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
/// Function acquires the capability exclusively and holds it on return.
#define QCFE_ACQUIRE(...) \
  QCFE_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
/// Function acquires the capability shared and holds it on return.
#define QCFE_ACQUIRE_SHARED(...) \
  QCFE_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
/// Function releases the capability (exclusive or shared) before return.
#define QCFE_RELEASE(...) \
  QCFE_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
/// Function releases a shared hold of the capability before return.
#define QCFE_RELEASE_SHARED(...) \
  QCFE_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
/// Caller must NOT hold the capability (deadlock prevention: the function
/// acquires it itself).
#define QCFE_EXCLUDES(...) QCFE_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// Declares that the function dynamically verifies the capability is held
/// and informs the analysis of that fact (Mutex::AssertHeld).
#define QCFE_ASSERT_CAPABILITY(...) \
  QCFE_THREAD_ANNOTATION(assert_capability(__VA_ARGS__))
/// Escape hatch: disables the analysis for one function. Every use needs a
/// comment explaining why the analysis cannot see the invariant.
#define QCFE_NO_THREAD_SAFETY_ANALYSIS \
  QCFE_THREAD_ANNOTATION(no_thread_safety_analysis)

/// Statement form of the dynamic held-check: aborts under dchecks when the
/// calling thread does not hold `mu` exclusively, and tells the static
/// analysis that it is held from this point on. Use at the top of lambdas
/// that run under a lock the analysis cannot see (wake predicates passed
/// through Clock::WaitUntil / CondVar::Wait).
#define QCFE_ASSERT_HELD(mu) (mu).AssertHeld()

namespace qcfe {

class CondVar;

/// Rank table for every ranked mutex in the tree, in required acquisition
/// order: a thread may acquire a ranked lock only while all ranked locks
/// it already holds have strictly smaller ranks. Leaf mutexes (never held
/// across another acquisition) still get a rank so an accidental nesting
/// is caught the first time it runs under dchecks. Gaps are deliberate —
/// new subsystems slot in without renumbering. The README
/// ("Thread-safety analysis & lock ranks") mirrors this table.
namespace lock_rank {
/// ThreadPool's job slot: guards publishing a loop, worker wake-up and the
/// join count. Never held while a loop body runs.
inline constexpr int kThreadPool = 10;
/// A ParallelFor loop's lowest-error record: taken only by a body's
/// exception handler (after the body has unwound) and by the caller once
/// the loop has joined.
inline constexpr int kParallelForError = 20;
/// AsyncServer's request queue: held while registering with the clock's
/// waiter list, so it must rank below kClockWaiters.
inline constexpr int kAsyncServerQueue = 30;
/// ObservationSink's window/label rings: a leaf taken from serving callers
/// after the AsyncServer queue lock is released (ReportObserved delivers
/// outside the queue lock), ranked above it so an accidental nesting under
/// the queue would still be legal in call order and caught if reversed.
inline constexpr int kObservationSink = 31;
/// DriftDetector's baseline/threshold tables: a leaf; evaluation copies
/// what it needs and computes outside the lock.
inline constexpr int kDriftDetector = 32;
/// AdaptationController's trip/worker state. The retrain cycle itself runs
/// with no controller lock held (it acquires thread-pool, model-swap and
/// server locks on its own), so this is a leaf below kModelSwap.
inline constexpr int kAdaptController = 33;
/// SwappableModel's publish lock: readers resolve the current model while
/// holding nothing heavier, and AsyncServer::stats() reads the version
/// while holding kAsyncServerQueue — so it must rank above the queue.
/// Publish never calls out while holding it (leaf on the write side).
inline constexpr int kModelSwap = 35;
/// Database's execution cache: leaf (execution runs outside the lock).
inline constexpr int kDatabaseCache = 40;
/// EstimatorRegistry's entry map: leaf (factories run outside the lock).
inline constexpr int kEstimatorRegistry = 50;
/// FakeClock's waiter registry: the highest rank in the tree because
/// WaitUntil registers while the caller's own mutex is held.
inline constexpr int kClockWaiters = 90;
}  // namespace lock_rank

/// Rank value meaning "unranked": the lock-rank checker ignores the mutex.
inline constexpr int kNoLockRank = -1;

namespace sync_internal {

/// Lock-rank checker core. Always compiled (sync.cc) so the checker itself
/// is death-testable in every build type; whether Mutex::Lock *calls* it
/// is decided by the build-level QCFE_ENABLE_DCHECKS flag.
///
/// Verifies `rank` is strictly greater than every held rank and pushes it;
/// aborts naming both ranks on violation. No-op for kNoLockRank.
void RankOnAcquire(int rank);
/// Pops the most recent occurrence of `rank` (locks may be released out of
/// LIFO order). No-op for kNoLockRank.
void RankOnRelease(int rank);
/// Highest rank currently held by the calling thread (kNoLockRank if none).
int TopHeldRank();

}  // namespace sync_internal

/// True when the sync layer was built with lock-rank checking and owner
/// tracking compiled in (-DQCFE_ENABLE_DCHECKS=ON). Out of line so it
/// reports sync.cc's build-level truth.
bool LockRankCheckingEnabled();

/// Exclusive mutex (std::mutex-backed) with capability annotations, an
/// optional lock rank, and debug owner tracking for AssertHeld.
class QCFE_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  /// A ranked mutex participates in the debug lock-rank check; use a
  /// lock_rank constant (or a test-local value).
  explicit Mutex(int rank) : rank_(rank) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() QCFE_ACQUIRE() {
#if QCFE_DCHECKS_ENABLED
    sync_internal::RankOnAcquire(rank_);
#endif
    mu_.lock();
#if QCFE_DCHECKS_ENABLED
    owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
#endif
  }

  void Unlock() QCFE_RELEASE() {
#if QCFE_DCHECKS_ENABLED
    owner_.store(std::thread::id(), std::memory_order_relaxed);
    sync_internal::RankOnRelease(rank_);
#endif
    mu_.unlock();
  }

  /// Dynamic + static held-check; see QCFE_ASSERT_HELD. Under dchecks,
  /// aborts when the calling thread is not the current owner; in release
  /// it only informs the static analysis.
  void AssertHeld() const QCFE_ASSERT_CAPABILITY() {
#if QCFE_DCHECKS_ENABLED
    QCFE_CHECK(owner_.load(std::memory_order_relaxed) ==
                   std::this_thread::get_id(),
               "Mutex::AssertHeld: calling thread does not hold this mutex");
#endif
  }

  int rank() const { return rank_; }

 private:
  friend class CondVar;

  /// CondVar::Wait bookkeeping around the wait's release/reacquire window
  /// (the wait itself operates on mu_ directly via std::unique_lock).
  void PrepareToWait() {
#if QCFE_DCHECKS_ENABLED
    AssertHeld();
    owner_.store(std::thread::id(), std::memory_order_relaxed);
#endif
  }
  void ResumeAfterWait() {
#if QCFE_DCHECKS_ENABLED
    owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
#endif
  }

  std::mutex mu_;
  /// Debug-only state; members exist in every build so the class layout
  /// never depends on the dcheck flag.
  std::atomic<std::thread::id> owner_{};
  int rank_ = kNoLockRank;
};

/// Reader/writer mutex (std::shared_mutex-backed) for read-mostly state
/// (the estimator registry, the execution cache). Exclusive side mirrors
/// Mutex; the shared side has no owner tracking (shared_mutex cannot name
/// its readers) but still participates in rank checking — a reader hold
/// can deadlock against a writer just as well as an exclusive one.
class QCFE_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  explicit SharedMutex(int rank) : rank_(rank) {}

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() QCFE_ACQUIRE() {
#if QCFE_DCHECKS_ENABLED
    sync_internal::RankOnAcquire(rank_);
#endif
    mu_.lock();
#if QCFE_DCHECKS_ENABLED
    owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
#endif
  }

  void Unlock() QCFE_RELEASE() {
#if QCFE_DCHECKS_ENABLED
    owner_.store(std::thread::id(), std::memory_order_relaxed);
    sync_internal::RankOnRelease(rank_);
#endif
    mu_.unlock();
  }

  void ReaderLock() QCFE_ACQUIRE_SHARED() {
#if QCFE_DCHECKS_ENABLED
    sync_internal::RankOnAcquire(rank_);
#endif
    mu_.lock_shared();
  }

  void ReaderUnlock() QCFE_RELEASE_SHARED() {
#if QCFE_DCHECKS_ENABLED
    sync_internal::RankOnRelease(rank_);
#endif
    mu_.unlock_shared();
  }

  /// Exclusive-hold assertion only: shared holders are anonymous.
  void AssertHeld() const QCFE_ASSERT_CAPABILITY() {
#if QCFE_DCHECKS_ENABLED
    QCFE_CHECK(owner_.load(std::memory_order_relaxed) ==
                   std::this_thread::get_id(),
               "SharedMutex::AssertHeld: calling thread does not hold this "
               "mutex exclusively");
#endif
  }

  int rank() const { return rank_; }

 private:
  std::shared_mutex mu_;
  std::atomic<std::thread::id> owner_{};
  int rank_ = kNoLockRank;
};

/// RAII exclusive lock on a Mutex.
class QCFE_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) QCFE_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() QCFE_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// RAII shared (reader) lock on a SharedMutex.
class QCFE_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex* mu) QCFE_ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_->ReaderLock();
  }
  ~ReaderMutexLock() QCFE_RELEASE() { mu_->ReaderUnlock(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex* const mu_;
};

/// RAII exclusive (writer) lock on a SharedMutex.
class QCFE_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex* mu) QCFE_ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  ~WriterMutexLock() QCFE_RELEASE() { mu_->Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex* const mu_;
};

/// Condition variable bound to qcfe::Mutex. Waiting releases and
/// reacquires the mutex, so the net capability effect is "requires":
/// callers hold the mutex before and after, which is exactly what the
/// annotation says. Wake predicates are evaluated with the mutex held —
/// start them with QCFE_ASSERT_HELD(mu) so the analysis knows it too.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified (or spuriously woken). Prefer the predicate
  /// overload.
  void Wait(Mutex* mu) QCFE_REQUIRES(mu);

  /// Blocks until `pred()` is true. `pred` runs with `mu` held.
  template <typename Pred>
  void Wait(Mutex* mu, Pred pred) QCFE_REQUIRES(mu) {
    while (!pred()) Wait(mu);
  }

  /// Blocks until notified or `timeout_micros` elapses (whichever first).
  /// Returns false iff the wait timed out. Like std::condition_variable,
  /// may also return true spuriously — callers loop on their predicate
  /// (Clock::WaitUntil does).
  bool WaitFor(Mutex* mu, int64_t timeout_micros) QCFE_REQUIRES(mu);

  void NotifyOne();
  void NotifyAll();

 private:
  std::condition_variable cv_;
};

}  // namespace qcfe

#endif  // QCFE_UTIL_SYNC_H_
