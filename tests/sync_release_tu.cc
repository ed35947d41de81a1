// Annotated sync layer (util/sync.h), release half.
//
// Unlike check_release_tu.cc this TU must NOT force QCFE_ENABLE_DCHECKS
// off before including the header: Mutex::Lock/Unlock are *inline
// functions*, and two TUs compiling different bodies for them is an ODR
// violation (the linker would pick one arbitrarily, making the death
// tests in sync_test.cc flaky at best). The dcheck flag for sync.h is
// build-global; release behaviour is therefore asserted behind the
// runtime LockRankCheckingEnabled() query, and these tests skip
// themselves in a -DQCFE_ENABLE_DCHECKS=ON build where sync_test.cc's
// death tests take over.

#include "util/sync.h"

#include <gtest/gtest.h>

namespace qcfe {
namespace {

// Same deliberately-forbidden acquisition order as sync_test.cc; here it
// must run to completion. (Separate copy in this TU's anonymous
// namespace; the analysis is off because the order is the test.)
void AcquireOutOfOrderRelease(Mutex* hi,
                              Mutex* lo) QCFE_NO_THREAD_SAFETY_ANALYSIS {
  hi->Lock();
  lo->Lock();
  lo->Unlock();
  hi->Unlock();
}

TEST(SyncReleaseTest, RankCheckingFlagMatchesBuildLevelDchecks) {
  // sync.cc and this TU must agree on the one build-global flag; a
  // mismatch would mean someone reintroduced per-TU toggling.
  EXPECT_EQ(LockRankCheckingEnabled(), QCFE_DCHECKS_ENABLED == 1);
}

TEST(SyncReleaseTest, ReleaseBuildSkipsRankBookkeepingEntirely) {
  if (LockRankCheckingEnabled()) {
    GTEST_SKIP() << "dchecks build: the enabled half lives in sync_test.cc";
  }
  // A ranked Lock must not reach the checker core: the held-rank stack
  // stays empty, an inversion does not abort, and AssertHeld is silent
  // without an owner record — the "ranked mutex costs exactly a
  // std::mutex" guarantee from the sync.h header comment.
  Mutex server(lock_rank::kAsyncServerQueue);
  Mutex pool(lock_rank::kThreadPool);
  server.Lock();
  EXPECT_EQ(sync_internal::TopHeldRank(), kNoLockRank);
  server.Unlock();
  AcquireOutOfOrderRelease(&server, &pool);

  Mutex unheld;
  unheld.AssertHeld();  // no owner tracking: must not abort
}

}  // namespace
}  // namespace qcfe
