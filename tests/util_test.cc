/// Unit tests for src/util: Status/Result, RNG determinism and distribution
/// sanity, the thread pool (coverage, exception propagation, nesting,
/// concurrent callers), metric definitions (q-error, Pearson, quantiles),
/// string helpers and table rendering.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/clock.h"
#include "util/sync.h"
#include "util/env_config.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"

namespace qcfe {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad scale");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad scale");
}

TEST(StatusTest, ResultHoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(StatusTest, ResultHoldsError) {
  Result<int> r = Status::NotFound("no such table");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(StatusTest, ReturnIfErrorMacroPropagates) {
  auto fails = [] { return Status::Internal("boom"); };
  auto wrapper = [&]() -> Status {
    QCFE_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_FALSE(wrapper().ok());
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.UniformInt(3, 7));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 3);
  EXPECT_EQ(*seen.rbegin(), 7);
}

TEST(RngTest, UniformIntSingleton) {
  Rng rng(9);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.UniformInt(5, 5), 5);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  std::vector<double> xs(20000);
  for (double& x : xs) x = rng.Gaussian();
  EXPECT_NEAR(Mean(xs), 0.0, 0.05);
  std::vector<double> sq;
  for (double x : xs) sq.push_back(x * x);
  EXPECT_NEAR(Mean(sq), 1.0, 0.1);  // E[x^2] = variance + mean^2 = 1
}

TEST(RngTest, LognormalNoiseMeanIsOne) {
  Rng rng(13);
  std::vector<double> xs(40000);
  for (double& x : xs) x = rng.LognormalNoise(0.1);
  EXPECT_NEAR(Mean(xs), 1.0, 0.01);
  for (double x : xs) EXPECT_GT(x, 0.0);
}

TEST(RngTest, LognormalZeroSigmaIsExactlyOne) {
  Rng rng(13);
  EXPECT_EQ(rng.LognormalNoise(0.0), 1.0);
}

TEST(RngTest, ZipfSkewsTowardSmallValues) {
  Rng rng(17);
  const ZipfTable zipf(100, 1.2);
  int low = 0, n = 5000;
  for (int i = 0; i < n; ++i) {
    if (zipf.Sample(&rng) <= 10) ++low;
  }
  // With s=1.2 the first decile carries well over half the mass.
  EXPECT_GT(low, n / 2);
}

TEST(RngTest, ZipfZeroExponentIsUniform) {
  Rng rng(17);
  const ZipfTable zipf(100, 0.0);
  int low = 0, n = 10000;
  for (int i = 0; i < n; ++i) {
    if (zipf.Sample(&rng) <= 50) ++low;
  }
  EXPECT_NEAR(static_cast<double>(low) / n, 0.5, 0.03);
}

// The O(n)-per-draw inverse-CDF scan that ZipfTable replaced, kept as the
// oracle for its bit-parity contract. Per draw it scales one Uniform() by
// the normaliser and re-accumulates 1/i^s from i = 1 until the running sum
// reaches the target. The terms and the normaliser are pure functions of
// (i, s), so they are computed once here rather than on every draw; the
// per-draw additions and comparisons run in the original order.
class LinearScanZipf {
 public:
  LinearScanZipf(int64_t n, double s) : n_(n), s_(s) {
    for (int64_t i = 1; i <= n; ++i) {
      terms_.push_back(1.0 / std::pow(static_cast<double>(i), s));
      norm_ += terms_.back();
    }
  }

  int64_t Sample(Rng* rng) const {
    if (s_ <= 0.0) return rng->UniformInt(1, n_);
    double target = rng->Uniform() * norm_;
    double acc = 0.0;
    for (int64_t i = 1; i <= n_; ++i) {
      acc += terms_[static_cast<size_t>(i - 1)];
      if (acc >= target) return i;
    }
    return n_;
  }

 private:
  int64_t n_;
  double s_;
  std::vector<double> terms_;
  double norm_ = 0.0;
};

TEST(RngTest, ZipfTableMatchesLinearScanReference) {
  const int64_t kSizes[] = {1, 2, 7, 100, 2000, 6000};
  const double kExponents[] = {0.0, 0.5, 0.6, 0.9, 1.0, 1.2, 3.0, 50.0};
  const int kDraws = 5000;
  uint64_t seed = 101;
  for (int64_t n : kSizes) {
    for (double s : kExponents) {
      const ZipfTable table(n, s);
      const LinearScanZipf scan(n, s);
      Rng a(seed), b(seed);
      ++seed;
      int mismatches = 0;
      for (int d = 0; d < kDraws; ++d) {
        int64_t got = table.Sample(&a);
        int64_t want = scan.Sample(&b);
        ASSERT_GE(got, 1);
        ASSERT_LE(got, n);
        if (got != want && ++mismatches <= 3) {
          ADD_FAILURE() << "n=" << n << " s=" << s << " draw " << d
                        << ": table " << got << " vs scan " << want;
        }
      }
      EXPECT_EQ(mismatches, 0) << "n=" << n << " s=" << s;
      EXPECT_EQ(a.state(), b.state()) << "n=" << n << " s=" << s;
    }
  }
}

TEST(ZipfTableDeathTest, RejectsBadParameters) {
  EXPECT_DEATH(ZipfTable(0, 1.0), "n >= 1");
  EXPECT_DEATH(ZipfTable(-5, 0.0), "n >= 1");
  EXPECT_DEATH(ZipfTable(10, std::nan("")), "finite exponent");
  EXPECT_DEATH(ZipfTable(10, HUGE_VAL), "finite exponent");
  EXPECT_DEATH(ZipfTable(10, -HUGE_VAL), "finite exponent");
}

TEST(RngTest, SampleIndicesDistinctAndInRange) {
  Rng rng(19);
  auto idx = rng.SampleIndices(50, 20);
  std::set<size_t> uniq(idx.begin(), idx.end());
  EXPECT_EQ(uniq.size(), 20u);
  for (size_t i : idx) EXPECT_LT(i, 50u);
}

TEST(RngTest, SampleAllIndices) {
  Rng rng(19);
  auto idx = rng.SampleIndices(10, 10);
  std::set<size_t> uniq(idx.begin(), idx.end());
  EXPECT_EQ(uniq.size(), 10u);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, SplitDoesNotAdvanceParent) {
  Rng a(41), b(41);
  (void)a.Split(0);  // child discarded: only a's own stream is under test
  (void)a.Split(7);  // child discarded: only a's own stream is under test
  // a's own stream is untouched by splitting.
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, SplitIsDeterministicAndOrderIndependent) {
  Rng a(43), b(43);
  Rng a5 = a.Split(5);
  (void)b.Split(9);  // splitting other streams first changes nothing
  Rng b5 = b.Split(5);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a5.Next(), b5.Next());
}

TEST(RngTest, SplitStreamsAreIndependent) {
  Rng parent(47);
  Rng s1 = parent.Split(1);
  Rng s2 = parent.Split(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (s1.Next() == s2.Next());
  EXPECT_LT(same, 2);
}

TEST(ThreadPoolTest, ResolveNumThreads) {
  EXPECT_EQ(ResolveNumThreads(3), 3u);
  EXPECT_EQ(ResolveNumThreads(1), 1u);
  EXPECT_GE(ResolveNumThreads(0), 1u);   // hardware concurrency
  EXPECT_GE(ResolveNumThreads(-1), 1u);
}

TEST(ThreadPoolTest, PartitionBlocksCoversRangeContiguously) {
  auto blocks = PartitionBlocks(10, 4);
  ASSERT_EQ(blocks.size(), 4u);
  size_t at = 0;
  for (const auto& [begin, end] : blocks) {
    EXPECT_EQ(begin, at);
    EXPECT_GT(end, begin);
    at = end;
  }
  EXPECT_EQ(at, 10u);
  EXPECT_TRUE(PartitionBlocks(0, 4).empty());
  EXPECT_EQ(PartitionBlocks(3, 8).size(), 3u);  // never more blocks than items
}

TEST(ThreadPoolTest, ParallelForZeroItems) {
  ThreadPool pool(4);
  int calls = 0;
  ParallelFor(&pool, 0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // Zero items with a null pool is equally a no-op.
  ParallelFor(nullptr, 0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h = 0;
  ParallelFor(&pool, hits.size(), [&](size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, NullPoolRunsSerially) {
  std::vector<int> order;
  ParallelFor(nullptr, 5, [&](size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, ParallelMapKeepsIndexOrder) {
  ThreadPool pool(3);
  std::vector<int> out = ParallelMap<int>(
      &pool, 100, [](size_t i) { return static_cast<int>(i * i); });
  ASSERT_EQ(out.size(), 100u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i * i));
  }
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      ParallelFor(&pool, 64,
                  [&](size_t i) {
                    if (i == 13) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
  // The pool survives a throwing loop and stays usable.
  std::atomic<int> calls{0};
  ParallelFor(&pool, 16, [&](size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 16);
}

TEST(ThreadPoolTest, FirstBlockExceptionWins) {
  ThreadPool pool(4);
  try {
    ParallelFor(&pool, 4, [&](size_t i) {
      throw std::runtime_error("block " + std::to_string(i));
    });
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    // Blocks map 1:1 onto indices here, so the lowest index must surface.
    EXPECT_STREQ(e.what(), "block 0");
  }
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  for (auto& h : hits) h = 0;
  ParallelFor(&pool, 8, [&](size_t outer) {
    EXPECT_TRUE(pool.InWorkerThread());
    // Nested loop on the same pool: must run inline, not deadlock.
    ParallelFor(&pool, 8, [&](size_t inner) { ++hits[outer * 8 + inner]; });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, NestedExceptionStillPropagates) {
  ThreadPool pool(2);
  EXPECT_THROW(ParallelFor(&pool, 4,
                           [&](size_t) {
                             ParallelFor(&pool, 4, [&](size_t j) {
                               if (j == 3) throw std::logic_error("inner");
                             });
                           }),
               std::logic_error);
}

TEST(ThreadPoolTest, LowestThrowingIndexWinsUnderDynamicClaiming) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    try {
      ParallelFor(&pool, 512, [&](size_t i) {
        if (i == 40) {
          // Slow down the lowest thrower so higher indices throw first.
          volatile double sink = 0.0;
          for (int k = 0; k < 200000; ++k) sink = sink + 1.0;
        }
        if (i >= 40 && i % 5 == 0) {
          throw std::runtime_error("index " + std::to_string(i));
        }
      });
      FAIL() << "expected a throw";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "index 40");
    }
  }
}

TEST(ThreadPoolTest, ConcurrentCallersEachRunEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr int kCallers = 4;
  constexpr int kRounds = 25;
  std::atomic<int> bad{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &bad, c] {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<std::atomic<int>> hits(100 + 37 * c + round);
        for (auto& h : hits) h = 0;
        ParallelFor(&pool, hits.size(), [&](size_t i) { ++hits[i]; });
        for (const auto& h : hits) bad += (h.load() != 1);
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST(ThreadPoolTest, SecondCallerRunsInlineWhilePoolIsBusy) {
  ThreadPool pool(4);
  std::atomic<bool> started{false};
  std::atomic<bool> released{false};
  std::thread first([&] {
    ParallelFor(&pool, 4, [&](size_t i) {
      if (i != 0) return;
      started = true;
      // Holds the pool's loop open until the second caller has finished;
      // a second caller that queued behind this loop would never finish.
      while (!released) std::this_thread::yield();
    });
  });
  while (!started) std::this_thread::yield();
  std::vector<std::thread::id> ran_on(16);
  ParallelFor(&pool, ran_on.size(),
              [&](size_t i) { ran_on[i] = std::this_thread::get_id(); });
  released = true;
  first.join();
  for (const auto& id : ran_on) EXPECT_EQ(id, std::this_thread::get_id());
}

TEST(ThreadPoolDeathTest, CallerHoldingRankedLockAbortsUnderDchecks) {
  if (!LockRankCheckingEnabled()) {
    GTEST_SKIP() << "the caller-lock contract is a dcheck";
  }
  EXPECT_DEATH(
      {
        ThreadPool pool(2);
        Mutex cache(lock_rank::kDatabaseCache);
        MutexLock lock(&cache);
        ParallelFor(&pool, 8, [](size_t) {});
      },
      "holds a ranked lock");
}

TEST(StatsTest, QErrorPerfectPredictionIsOne) {
  EXPECT_DOUBLE_EQ(QError(10.0, 10.0), 1.0);
}

TEST(StatsTest, QErrorSymmetric) {
  EXPECT_DOUBLE_EQ(QError(10.0, 5.0), QError(5.0, 10.0));
  EXPECT_DOUBLE_EQ(QError(10.0, 5.0), 2.0);
}

TEST(StatsTest, QErrorClampsNonPositive) {
  double q = QError(10.0, -5.0);
  EXPECT_TRUE(std::isfinite(q));
  EXPECT_GT(q, 1.0);
}

TEST(StatsTest, QErrorAlwaysAtLeastOne) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double a = rng.Uniform(0.001, 100.0), p = rng.Uniform(0.001, 100.0);
    EXPECT_GE(QError(a, p), 1.0);
  }
}

TEST(StatsTest, PearsonPerfectPositive) {
  std::vector<double> a{1, 2, 3, 4}, b{2, 4, 6, 8};
  EXPECT_NEAR(Pearson(a, b), 1.0, 1e-12);
}

TEST(StatsTest, PearsonPerfectNegative) {
  std::vector<double> a{1, 2, 3, 4}, b{8, 6, 4, 2};
  EXPECT_NEAR(Pearson(a, b), -1.0, 1e-12);
}

TEST(StatsTest, PearsonConstantInputIsZero) {
  std::vector<double> a{1, 1, 1, 1}, b{2, 4, 6, 8};
  EXPECT_EQ(Pearson(a, b), 0.0);
}

TEST(StatsTest, QuantileEdges) {
  std::vector<double> xs{5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.5), 3.0);
}

TEST(StatsTest, QuantileInterpolates) {
  std::vector<double> xs{0.0, 10.0};
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.25), 2.5);
}

TEST(StatsTest, MeanKnownValues) {
  std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(Mean(xs), 5.0);
  EXPECT_EQ(Mean({}), 0.0);
}

TEST(StatsTest, SummarizeBundlesAllMetrics) {
  std::vector<double> actual{10, 20, 30, 40};
  std::vector<double> pred{10, 20, 30, 80};
  MetricSummary s = Summarize(actual, pred);
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.max_qerror, 2.0);
  EXPECT_GE(s.mean_qerror, 1.0);
  EXPECT_GT(s.pearson, 0.9);
  EXPECT_LE(s.q25, s.median_qerror);
  EXPECT_LE(s.median_qerror, s.q75);
  EXPECT_LE(s.q75, s.q90);
  EXPECT_LE(s.q90, s.q95);
}

TEST(StringTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(StringTest, TrimBothEnds) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringTest, CaseConversion) {
  EXPECT_EQ(ToLower("SELECT * FROM T"), "select * from t");
}

TEST(StringTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(StringTest, Contains) {
  EXPECT_TRUE(Contains("a join b", "join"));
  EXPECT_FALSE(Contains("a join b", "joins"));
}

TEST(StringTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(1.23456, 2), "1.23");
  EXPECT_EQ(FormatDouble(2.0, 3), "2.000");
}

TEST(TablePrinterTest, AlignsColumnsAndPadsShortRows) {
  TablePrinter tp({"model", "qerr"});
  tp.AddRow({"QCFE(qpp)", "1.072"});
  tp.AddRow({"pg"});
  std::ostringstream os;
  tp.Print(os);
  std::string out = os.str();
  EXPECT_NE(out.find("QCFE(qpp)"), std::string::npos);
  EXPECT_NE(out.find("model"), std::string::npos);
  EXPECT_EQ(tp.num_rows(), 2u);
}

TEST(EnvConfigTest, DefaultsToQuickScale) {
  // The test environment does not set QCFE_SCALE.
  EXPECT_EQ(RunScaleName(), "quick");
  EXPECT_EQ(ScaledCount(10000, 10, 500), 1000u);
  EXPECT_EQ(ScaledCount(1000, 10, 500), 500u);
}

TEST(EnvConfigTest, ThreadsFromArgsParsesBothForms) {
  // Shield the no-flag fallback from a QCFE_THREADS in the developer's
  // shell.
  const char* saved = std::getenv("QCFE_THREADS");
  std::string saved_value = saved == nullptr ? "" : saved;
  unsetenv("QCFE_THREADS");

  const char* eq[] = {"bench", "--threads=4"};
  EXPECT_EQ(ThreadsFromArgs(2, const_cast<char**>(eq)), 4);
  const char* sep[] = {"bench", "--threads", "8"};
  EXPECT_EQ(ThreadsFromArgs(3, const_cast<char**>(sep)), 8);
  const char* none[] = {"bench"};
  EXPECT_EQ(ThreadsFromArgs(1, const_cast<char**>(none)), 1);
  // Malformed values fall back to serial, not to all hardware threads.
  const char* bad[] = {"bench", "--threads=abc"};
  EXPECT_EQ(ThreadsFromArgs(2, const_cast<char**>(bad)), 1);

  setenv("QCFE_THREADS", "6", 1);
  EXPECT_EQ(ThreadsFromArgs(1, const_cast<char**>(none)), 6);

  if (saved == nullptr) {
    unsetenv("QCFE_THREADS");
  } else {
    setenv("QCFE_THREADS", saved_value.c_str(), 1);
  }
}

TEST(EnvConfigTest, WallTimerAdvances) {
  // Real-clock smoke only: elapsed time is non-negative. Exact elapsed-time
  // behaviour is asserted below with an injected FakeClock — a wall-clock
  // upper bound here (the historical `Seconds() < 1.0`) flakes whenever a
  // loaded CI machine or a sanitizer build stalls the test for a second.
  WallTimer t;
  EXPECT_GE(t.Seconds(), 0.0);
}

TEST(EnvConfigTest, WallTimerFollowsInjectedClock) {
  // Exactly-representable elapsed values (multiples of 2^-2 seconds), so
  // bitwise EXPECT_EQ is valid.
  FakeClock clock(5'000'000);
  WallTimer t(&clock);
  EXPECT_EQ(t.Seconds(), 0.0);
  clock.Advance(250'000);
  EXPECT_EQ(t.Seconds(), 0.25);
  clock.Advance(750'000);
  EXPECT_EQ(t.Seconds(), 1.0);
  // A second timer on the same clock starts from its own construction.
  WallTimer later(&clock);
  clock.Advance(2'000'000);
  EXPECT_EQ(later.Seconds(), 2.0);
  EXPECT_EQ(t.Seconds(), 3.0);
}

TEST(ClockTest, FakeClockAdvancesManually) {
  FakeClock clock;
  EXPECT_EQ(clock.NowMicros(), 0);
  clock.Advance(42);
  EXPECT_EQ(clock.NowMicros(), 42);
  FakeClock offset(100);
  EXPECT_EQ(offset.NowMicros(), 100);
}

TEST(ClockTest, FakeClockWaitUntilWakesOnAdvanceAndOnPredicate) {
  FakeClock clock;
  Mutex mu;
  CondVar cv;
  bool flag = false;

  // Deadline wake: a waiter whose predicate never fires returns false once
  // Advance() carries the clock to its deadline. No sleeps anywhere.
  std::thread deadline_waiter([&] {
    MutexLock lock(&mu);
    bool woken_by_pred = clock.WaitUntil(&cv, &mu, 1000, [] { return false; });
    EXPECT_FALSE(woken_by_pred);
  });
  clock.Advance(1000);
  deadline_waiter.join();

  // Predicate wake: an ordinary cv notification delivers through WaitUntil
  // even though time never reaches the deadline.
  std::thread pred_waiter([&] {
    MutexLock lock(&mu);
    bool woken_by_pred = clock.WaitUntil(&cv, &mu, Clock::kNoDeadline, [&] {
      QCFE_ASSERT_HELD(mu);
      return flag;
    });
    EXPECT_TRUE(woken_by_pred);
  });
  {
    MutexLock lock(&mu);
    flag = true;
  }
  cv.NotifyAll();
  pred_waiter.join();
}

TEST(ClockTest, FakeClockWaiterRegistryDropsEntriesWhenWaitsReturn) {
  // Regression test for the waiter-registry lifetime hole: two waiters
  // sharing one CondVar must each remove exactly their own registry entry.
  // The historical erase-by-cv cleanup could remove the *other* thread's
  // entry, leaving a stale Waiter pointing at a stack frame that has
  // already returned — the next Advance() would then touch freed memory.
  FakeClock clock;
  Mutex mu;
  CondVar cv;
  bool first_done = false;
  bool second_done = false;
  EXPECT_EQ(clock.waiter_count_for_test(), 0u);

  std::thread first([&] {
    MutexLock lock(&mu);
    clock.WaitUntil(&cv, &mu, Clock::kNoDeadline, [&] {
      QCFE_ASSERT_HELD(mu);
      return first_done;
    });
  });
  std::thread second([&] {
    MutexLock lock(&mu);
    clock.WaitUntil(&cv, &mu, Clock::kNoDeadline, [&] {
      QCFE_ASSERT_HELD(mu);
      return second_done;
    });
  });

  // Wait (in real time) for both threads to park and register.
  while (clock.waiter_count_for_test() < 2) std::this_thread::yield();

  // Release the first waiter only: exactly one registry entry must go with
  // it, and the second waiter's entry must survive.
  {
    MutexLock lock(&mu);
    first_done = true;
  }
  cv.NotifyAll();
  first.join();
  EXPECT_EQ(clock.waiter_count_for_test(), 1u);

  {
    MutexLock lock(&mu);
    second_done = true;
  }
  cv.NotifyAll();
  second.join();
  EXPECT_EQ(clock.waiter_count_for_test(), 0u);

  // A registry empty again means Advance() walks no stale entries.
  clock.Advance(1);
}

TEST(ClockTest, RealClockIsMonotonic) {
  Clock* clock = Clock::Real();
  int64_t a = clock->NowMicros();
  int64_t b = clock->NowMicros();
  EXPECT_GE(a, 0);
  EXPECT_GE(b, a);
  // A satisfied predicate returns immediately regardless of deadline.
  Mutex mu;
  CondVar cv;
  MutexLock lock(&mu);
  EXPECT_TRUE(
      clock->WaitUntil(&cv, &mu, Clock::kNoDeadline, [] { return true; }));
}

}  // namespace
}  // namespace qcfe
