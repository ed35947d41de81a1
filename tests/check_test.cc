// Contract-macro semantics (util/check.h), dcheck-enabled half.
//
// This TU forces QCFE_ENABLE_DCHECKS on before including check.h, so the
// tests here hold in every build type; tests/check_release_tu.cc forces it
// off in the same binary and proves the release no-op guarantee.
#define QCFE_ENABLE_DCHECKS 1

#include "util/check.h"

#include <gtest/gtest.h>

#include "nn/matrix.h"
#include "nn/mlp.h"
#include "util/rng.h"
#include "util/status.h"

namespace qcfe {
namespace {

TEST(CheckTest, PassingCheckIsSilent) {
  QCFE_CHECK(1 + 1 == 2, "arithmetic holds");
  QCFE_CHECK_OK(Status());
  QCFE_DCHECK(true, "dchecks are live in this TU");
  EXPECT_EQ(QCFE_DCHECKS_ENABLED, 1);
}

TEST(CheckTest, ConditionEvaluatedExactlyOnce) {
  int evals = 0;
  QCFE_CHECK(++evals > 0, "side effect must run once");
  EXPECT_EQ(evals, 1);
  QCFE_DCHECK(++evals > 0, "dcheck side effect runs when enabled");
  EXPECT_EQ(evals, 2);
}

TEST(CheckDeathTest, FailedCheckAbortsWithLocationAndMessage) {
  EXPECT_DEATH(QCFE_CHECK(false, "the message"),
               "QCFE_CHECK failed at .*check_test\\.cc:[0-9]+: "
               "false — the message");
}

TEST(CheckDeathTest, FailedCheckOkRendersTheStatus) {
  EXPECT_DEATH(QCFE_CHECK_OK(Status::InvalidArgument("bad shape")),
               "bad shape");
}

TEST(CheckDeathTest, FailedDcheckAbortsWhenEnabled) {
  EXPECT_DEATH(QCFE_DCHECK(2 < 1, "ordering"), "ordering");
}

// The contracts wired into the NN layer fire on real violations. These use
// always-on QCFE_CHECKs, so they hold in release builds too.

TEST(CheckDeathTest, MatrixAddShapeMismatchAborts) {
  Matrix a(2, 3), b(3, 2);
  EXPECT_DEATH(a.Add(b), "Matrix::Add shape mismatch");
}

TEST(CheckDeathTest, BackwardWithoutMatchingForwardAborts) {
  Rng rng(7);
  Mlp net({4, 8, 1}, Activation::kRelu, &rng);
  Matrix grad(1, 1);
  Mlp::Tape stale_tape;  // never produced by Forward() on this net
  EXPECT_DEATH(net.Backward(grad, &stale_tape),
               "tape does not match a Forward");
}

}  // namespace
}  // namespace qcfe
