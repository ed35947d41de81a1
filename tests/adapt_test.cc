/// Tests for the online adaptation loop (src/adapt) and its hooks through
/// serve and core:
///
///  * ObservationSink ring semantics and AsyncServer::ReportObserved
///    counter/forwarding behaviour.
///  * DetectDrift as a pure function: stable windows must not trip, a
///    sustained level shift trips the mean-ratio test, a fresh drift inside
///    a diluted window trips the Page–Hinkley test, and min_samples gates
///    both. DriftDetector baseline/override table behaviour on top.
///  * Pipeline::Retrain stats merge (the stale-train_stats_ bugfix):
///    Retrain -> Explain and Retrain -> Save -> Load must describe the
///    post-retrain fit, and the fit-time drift baselines must round-trip
///    through the artifact's kAdaptBaseline section.
///  * Retrain bit-identity at 1/2/4 threads (warm-start chunk-parallel
///    training is deterministic, so background adaptation never forks the
///    model by thread count).
///  * The full loop, deterministically and with zero sleeps: serve under a
///    FakeClock, inject drifted labels, the detector trips, a background
///    warm-start retrain publishes through LoadAndSwap, and q-error on the
///    drifted workload recovers. Failure legs: a failed save and a rejected
///    swap each bump exactly one typed counter and leave the serving
///    version bit-identical.
///  * A multi-caller stress test: every reply produced while adaptation
///    cycles continuously must bit-match exactly one published version.
///
/// CI runs this suite under ASan (dchecks) and TSan (see
/// .github/workflows/ci.yml).

#include <gtest/gtest.h>

#include <atomic>
#include <cfloat>
#include <cstdint>
#include <cmath>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "adapt/adaptation_controller.h"
#include "adapt/drift_detector.h"
#include "adapt/observation_sink.h"
#include "core/pipeline.h"
#include "harness/context.h"
#include "serve/async_server.h"
#include "serve/model_swap.h"
#include "util/check.h"
#include "util/clock.h"
#include "util/fs.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/sync.h"

namespace qcfe {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "qcfe_adapt_" + name;
}

std::vector<uint64_t> Bits(const std::vector<double>& values) {
  std::vector<uint64_t> bits(values.size());
  std::memcpy(bits.data(), values.data(), values.size() * sizeof(double));
  return bits;
}

// ------------------------------------------------- shared fitted context

struct SharedFixtures {
  std::unique_ptr<BenchmarkContext> ctx;
  std::vector<PlanSample> train, test;
};

SharedFixtures* Fixtures() {
  static SharedFixtures* fixtures = [] {
    auto* f = new SharedFixtures();
    HarnessOptions opt = OptionsFor("sysbench", RunScale::kQuick);
    opt.corpus_size = 200;
    opt.num_envs = 2;
    auto ctx = BenchmarkContext::Create(opt);
    QCFE_CHECK(ctx.ok(), "adapt_test benchmark context failed");
    f->ctx = std::move(ctx.value());
    f->ctx->Split(200, &f->train, &f->test);
    return f;
  }();
  return fixtures;
}

/// Cheap full-QCFE qppnet fit used as the adaptation trainer.
PipelineConfig QppConfig() {
  PipelineConfig cfg;
  cfg.estimator = "qppnet";
  cfg.pre_reduction_epochs = 3;
  cfg.train.epochs = 5;
  return cfg;
}

std::unique_ptr<Pipeline> FitTrainer(SharedFixtures* f) {
  auto trainer = f->ctx->FitPipeline(QppConfig(), f->train);
  QCFE_CHECK(trainer.ok(), "adapt_test trainer fit failed");
  return std::move(trainer.value());
}

/// `samples` with every label scaled by `scale` — the drift-injection
/// corpus (the world got `scale`x slower; plans are unchanged).
std::vector<PlanSample> ScaledLabels(const std::vector<PlanSample>& samples,
                                     size_t count, double scale) {
  std::vector<PlanSample> out;
  out.reserve(count);
  for (size_t i = 0; i < count && i < samples.size(); ++i) {
    out.push_back({samples[i].plan, samples[i].env_id,
                   scale * samples[i].label_ms});
  }
  return out;
}

// -------------------------------------------------------- observation sink

TEST(ObservationSinkTest, RingsDropOldestAndUnrollInArrivalOrder) {
  adapt::ObservationWindowConfig wc;
  wc.window_capacity = 3;
  wc.label_capacity = 4;
  adapt::ObservationSink sink(wc);
  PlanNode plan;
  plan.est_rows = 1.0;
  plan.actual_ms = 1.0;

  // predicted 1, actuals 2,4,8,16,32 -> q-errors 2,4,8,16,32.
  for (double actual : {2.0, 4.0, 8.0, 16.0, 32.0}) {
    sink.OnObservation(plan, 7, 1.0, actual);
  }
  EXPECT_EQ(sink.WindowQErrors(7), (std::vector<double>{8.0, 16.0, 32.0}));
  EXPECT_EQ(sink.EnvObservations(7), 5u);
  EXPECT_EQ(sink.TotalObservations(), 5u);
  EXPECT_TRUE(sink.WindowQErrors(99).empty());

  adapt::LabeledCorpus labels = sink.LabeledSamples();
  ASSERT_EQ(labels.samples.size(), 4u);  // capacity-bounded, oldest dropped
  EXPECT_EQ(labels.samples.front().label_ms, 4.0);
  EXPECT_EQ(labels.samples.back().label_ms, 32.0);
  // The buffered plan is a rescaled clone, never the caller's plan: its
  // subtree targets sum to the observed time, so training on the corpus
  // fits what was measured.
  EXPECT_NE(labels.samples.front().plan, &plan);
  for (const PlanSample& s : labels.samples) {
    EXPECT_EQ(SubtreeLatencyMs(*s.plan), s.label_ms);
  }

  sink.OnObservation(plan, 9, 1.0, 3.0);
  EXPECT_EQ(sink.EnvIds(), (std::vector<int>{7, 9}));

  // ClearWindows drops q-error history only: cumulative counters and the
  // labeled retraining buffer survive.
  sink.ClearWindows();
  EXPECT_TRUE(sink.WindowQErrors(7).empty());
  EXPECT_TRUE(sink.WindowQErrors(9).empty());
  EXPECT_EQ(sink.EnvObservations(7), 5u);
  EXPECT_EQ(sink.LabeledSamples().samples.size(), 4u);
  sink.OnObservation(plan, 7, 1.0, 6.0);
  EXPECT_EQ(sink.WindowQErrors(7), (std::vector<double>{6.0}));
  EXPECT_EQ(sink.EnvObservations(7), 6u);
}

TEST(ObservationSinkTest, ScaledClonesAttributeAndOutliveEviction) {
  adapt::ObservationWindowConfig wc;
  wc.label_capacity = 1;
  adapt::ObservationSink sink(wc);

  // A two-node plan with recorded latencies 3ms + 1ms, observed at 8ms:
  // both nodes scale by 2x, structure and estimates untouched.
  PlanNode plan;
  plan.op = OpType::kSort;
  plan.actual_ms = 3.0;
  plan.est_rows = 42.0;
  auto child = std::make_unique<PlanNode>();
  child->op = OpType::kSeqScan;
  child->table = "t";
  child->actual_ms = 1.0;
  plan.children.push_back(std::move(child));
  sink.OnObservation(plan, 1, 4.0, 8.0);

  adapt::LabeledCorpus corpus = sink.LabeledSamples();
  ASSERT_EQ(corpus.samples.size(), 1u);
  const PlanNode* clone = corpus.samples[0].plan;
  EXPECT_EQ(clone->actual_ms, 6.0);
  ASSERT_EQ(clone->children.size(), 1u);
  EXPECT_EQ(clone->children[0]->actual_ms, 2.0);
  EXPECT_EQ(clone->children[0]->table, "t");
  EXPECT_EQ(clone->est_rows, 42.0);
  EXPECT_EQ(plan.actual_ms, 3.0);  // the caller's plan is never mutated

  // A plan with no recorded latency cannot be attributed: buffered as-is.
  PlanNode blank;
  sink.OnObservation(blank, 1, 4.0, 8.0);
  EXPECT_EQ(sink.LabeledSamples().samples[0].plan->actual_ms, 0.0);

  // The capacity-1 ring just evicted the scaled clone, but the earlier
  // snapshot owns it (LabeledCorpus::owners): a retrain holding `corpus`
  // keeps training on valid plans no matter what arrives meanwhile.
  EXPECT_EQ(corpus.samples[0].plan->actual_ms, 6.0);
}

TEST(ObservationSinkTest, ReportObservedCountsAndForwards) {
  SwappableModel models;  // never published; ReportObserved is model-free
  AsyncServeConfig scfg;
  auto server = Pipeline::ServeAsync(&models, scfg);
  PlanNode plan;
  plan.est_rows = 5.0;

  // No listener attached: counted as dropped, nothing delivered.
  server->ReportObserved(plan, 1, 10.0, 20.0);
  AsyncServeStats stats = server->stats();
  EXPECT_EQ(stats.observations, 0u);
  EXPECT_EQ(stats.observations_dropped, 1u);

  adapt::ObservationSink sink;
  server->set_observation_listener(&sink);
  server->ReportObserved(plan, 1, 10.0, 20.0);  // q-error 2
  stats = server->stats();
  EXPECT_EQ(stats.observations, 1u);
  EXPECT_EQ(stats.observations_dropped, 1u);
  EXPECT_EQ(sink.WindowQErrors(1), (std::vector<double>{2.0}));
  ASSERT_EQ(sink.LabeledSamples().samples.size(), 1u);
  EXPECT_EQ(sink.LabeledSamples().samples[0].label_ms, 20.0);

  server->set_observation_listener(nullptr);
  server->ReportObserved(plan, 1, 10.0, 20.0);
  EXPECT_EQ(server->stats().observations_dropped, 2u);
  EXPECT_EQ(sink.TotalObservations(), 1u);
  server->Shutdown();
}

/// Counts what reaches the listener and remembers every delivered latency.
class RecordingListener : public ObservationListener {
 public:
  void OnObservation(const PlanNode& /*plan*/, int /*env_id*/,
                     double predicted_ms, double actual_ms) override {
    MutexLock lock(&mu_);
    predicted_.push_back(predicted_ms);
    delivered_.push_back(actual_ms);
  }
  std::vector<double> predicted() const {
    MutexLock lock(&mu_);
    return predicted_;
  }
  std::vector<double> delivered() const {
    MutexLock lock(&mu_);
    return delivered_;
  }

 private:
  mutable Mutex mu_;
  std::vector<double> predicted_ QCFE_GUARDED_BY(mu_);
  std::vector<double> delivered_ QCFE_GUARDED_BY(mu_);
};

TEST(ObservationSinkTest, ReportObservedRejectsBrokenLatencies) {
  // A NaN, infinite, zero, negative or absurdly large measured latency,
  // or a non-finite prediction, must never reach the drift window or the
  // retrain corpus. Broken and valid labels arrive interleaved in a seeded
  // order; only the valid ones are delivered.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> labels = {nan,  inf,   -inf,    0.0,
                                -1.0, -0.0,  1e303,   DBL_MAX,
                                std::nextafter(kMaxObservedMs, inf)};
  const size_t broken_labels = labels.size();
  Rng rng(20261017);
  for (int i = 0; i < 10; ++i) labels.push_back(rng.Uniform(0.5, 50.0));
  labels.push_back(kMaxObservedMs);  // the ceiling itself is a valid label
  rng.Shuffle(&labels);
  const std::vector<double> broken_predictions = {nan, inf, -inf};
  const size_t broken = broken_labels + broken_predictions.size();

  SwappableModel models;
  auto server = Pipeline::ServeAsync(&models, AsyncServeConfig{});
  RecordingListener listener;
  server->set_observation_listener(&listener);
  PlanNode plan;
  for (double actual : labels) server->ReportObserved(plan, 1, 10.0, actual);
  for (double predicted : broken_predictions) {
    server->ReportObserved(plan, 1, predicted, 5.0);
  }
  AsyncServeStats stats = server->stats();
  EXPECT_EQ(stats.observations_rejected, broken);
  EXPECT_EQ(stats.observations, labels.size() - broken_labels);
  EXPECT_EQ(stats.observations_dropped, 0u);
  const std::vector<double> delivered = listener.delivered();
  ASSERT_EQ(delivered.size(), labels.size() - broken_labels);
  for (double actual : delivered) {
    EXPECT_TRUE(actual > 0.0 && actual <= kMaxObservedMs) << actual;
  }
  for (double predicted : listener.predicted()) EXPECT_EQ(predicted, 10.0);
  // Validation comes before the listener check: a broken label is
  // rejected, not dropped, even with nobody listening.
  server->set_observation_listener(nullptr);
  server->ReportObserved(plan, 1, 10.0, nan);
  EXPECT_EQ(server->stats().observations_rejected, broken + 1);
  EXPECT_EQ(server->stats().observations_dropped, 0u);
  server->Shutdown();

  // QError lets no NaN through: either side NaN is the worst q-error.
  EXPECT_EQ(QError(nan, 2.0), inf);
  EXPECT_EQ(QError(2.0, nan), inf);
  EXPECT_EQ(QError(nan, nan), inf);
  EXPECT_EQ(QError(inf, 2.0), inf);
  EXPECT_EQ(QError(2.0, inf), inf);
  // Non-positive inputs clamp to the 1e-6 floor.
  EXPECT_DOUBLE_EQ(QError(0.0, 2.0), 2e6);
  EXPECT_DOUBLE_EQ(QError(-1.0, 2.0), 2e6);
  EXPECT_DOUBLE_EQ(QError(-inf, 2.0), 2e6);
  EXPECT_EQ(QError(4.0, 2.0), 2.0);
}

// --------------------------------------------------------- drift detection

TEST(DriftDetectTest, StableWindowDoesNotTrip) {
  adapt::DriftConfig cfg;  // defaults: min 32, ratio 1.5, lambda 4
  // Q-errors rattling around the 1.2 baseline: mean ratio 1.0, and the
  // Page–Hinkley walk has no sustained upward component.
  std::vector<double> window;
  for (size_t i = 0; i < 64; ++i) window.push_back(i % 2 == 0 ? 1.05 : 1.35);
  adapt::DriftVerdict v = adapt::DetectDrift(window, 1.2, cfg);
  EXPECT_FALSE(v.drifted);
  EXPECT_FALSE(v.mean_trip);
  EXPECT_FALSE(v.page_hinkley_trip);
  EXPECT_EQ(v.samples, 64u);
  EXPECT_NEAR(v.window_mean_qerror, 1.2, 1e-9);
}

TEST(DriftDetectTest, MinSamplesGatesBothTests) {
  adapt::DriftConfig cfg;
  cfg.min_samples = 32;
  // Screaming drift, but only 8 samples: no verdict yet, only diagnostics.
  std::vector<double> window(8, 100.0);
  adapt::DriftVerdict v = adapt::DetectDrift(window, 1.0, cfg);
  EXPECT_FALSE(v.drifted);
  EXPECT_EQ(v.samples, 8u);
  EXPECT_NEAR(v.window_mean_qerror, 100.0, 1e-9);
}

TEST(DriftDetectTest, SustainedShiftTripsMeanRatioNotPageHinkley) {
  adapt::DriftConfig cfg;
  cfg.min_samples = 32;
  // A window that was *already* degraded when it started: constant 4.0
  // q-error. There is no change-point inside the window, so Page–Hinkley
  // stays flat — only the comparison against the fit-time baseline can see
  // this, which is why both tests exist.
  std::vector<double> window(40, 4.0);
  adapt::DriftVerdict v = adapt::DetectDrift(window, 1.3, cfg);
  EXPECT_TRUE(v.drifted);
  EXPECT_TRUE(v.mean_trip);
  EXPECT_FALSE(v.page_hinkley_trip);
  EXPECT_NEAR(v.baseline_mean_qerror, 1.3, 1e-12);
}

TEST(DriftDetectTest, FreshDriftInDilutedWindowTripsPageHinkley) {
  adapt::DriftConfig cfg;
  cfg.min_samples = 32;
  // 48 healthy samples dilute 16 heavily drifted ones below the mean-ratio
  // threshold (mean 2.83 < 1.5 * 2.5), but the cumulative test sees the
  // late upward break clearly.
  std::vector<double> window(48, 1.1);
  window.insert(window.end(), 16, 8.0);
  adapt::DriftVerdict v = adapt::DetectDrift(window, 2.5, cfg);
  EXPECT_TRUE(v.drifted);
  EXPECT_FALSE(v.mean_trip);
  EXPECT_TRUE(v.page_hinkley_trip);
  EXPECT_GT(v.page_hinkley_stat, cfg.ph_lambda);
}

TEST(DriftDetectTest, CorruptBaselineIsClampedToPerfect) {
  adapt::DriftConfig cfg;
  cfg.min_samples = 4;
  // A baseline below 1.0 is impossible for a real q-error mean; clamping
  // to 1.0 keeps a zeroed/corrupt baseline from making the ratio test
  // hair-triggered.
  std::vector<double> window(8, 1.2);
  adapt::DriftVerdict v = adapt::DetectDrift(window, 0.0, cfg);
  EXPECT_EQ(v.baseline_mean_qerror, 1.0);
  EXPECT_FALSE(v.drifted);
}

TEST(DriftDetectTest, InfiniteQErrorTripsAndKeepsTheStatisticFinite) {
  // ReportObserved accepts actual_ms = 1e303 with predicted_ms = 0, and
  // QError gives +inf for that pair. One such sample used to make the
  // Page–Hinkley statistic NaN (inf - inf) for as long as it stayed in the
  // window, which silently disabled that test.
  adapt::DriftConfig cfg;
  const double inf_qerror = QError(1e303, 0.0);
  ASSERT_TRUE(std::isinf(inf_qerror));
  std::vector<double> window(40, 1.1);
  window[5] = inf_qerror;
  adapt::DriftVerdict v = adapt::DetectDrift(window, 1.2, cfg);
  EXPECT_FALSE(std::isnan(v.page_hinkley_stat));
  EXPECT_TRUE(std::isfinite(v.page_hinkley_stat));
  EXPECT_TRUE(v.mean_trip);
  EXPECT_TRUE(v.drifted);
  // A healthy window after the bad sample is evicted reads as before.
  std::vector<double> healthy(40, 1.1);
  EXPECT_FALSE(adapt::DetectDrift(healthy, 1.2, cfg).drifted);
}

TEST(DriftDetectTest, VerdictIsTotalOverHostileWindows) {
  // Seeded property test: windows mixing ordinary q-errors with +inf, NaN,
  // -inf, denormals, 0, negatives and huge finite values (plus empty
  // windows and hostile baselines). No verdict field may be NaN, the
  // Page–Hinkley statistic stays finite, the trip bits stay consistent,
  // and any +inf or NaN sample trips a window of at least min_samples.
  const double kInf = std::numeric_limits<double>::infinity();
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double specials[] = {kInf,
                             kNaN,
                             -kInf,
                             std::numeric_limits<double>::denorm_min(),
                             0.0,
                             -0.0,
                             -3.5,
                             std::numeric_limits<double>::max(),
                             1e303,
                             1.0};
  const double baselines[] = {1.2, 0.0, -1.0, kNaN, kInf, 1e303};
  constexpr size_t kNumSpecials = sizeof(specials) / sizeof(specials[0]);
  constexpr size_t kNumBaselines = sizeof(baselines) / sizeof(baselines[0]);
  Rng rng(4242);
  for (int trial = 0; trial < 2000; ++trial) {
    adapt::DriftConfig cfg;
    cfg.min_samples = static_cast<size_t>(1 + rng.UniformInt(0, 40));
    const size_t n = static_cast<size_t>(rng.UniformInt(0, 96));
    std::vector<double> window;
    bool has_inf_or_nan = false;
    for (size_t i = 0; i < n; ++i) {
      double q = rng.Uniform(1.0, 3.0);
      if (rng.Uniform(0.0, 1.0) < 0.15) {
        q = specials[rng.UniformInt(0, kNumSpecials - 1)];
      }
      has_inf_or_nan = has_inf_or_nan || std::isnan(q) || q == kInf;
      window.push_back(q);
    }
    const double baseline = baselines[rng.UniformInt(0, kNumBaselines - 1)];
    const adapt::DriftVerdict v = adapt::DetectDrift(window, baseline, cfg);
    SCOPED_TRACE(::testing::Message() << "trial " << trial << " n " << n);
    EXPECT_EQ(v.samples, n);
    EXPECT_FALSE(std::isnan(v.window_mean_qerror));
    EXPECT_FALSE(std::isnan(v.baseline_mean_qerror));
    EXPECT_GE(v.baseline_mean_qerror, 1.0);
    EXPECT_TRUE(std::isfinite(v.page_hinkley_stat));
    EXPECT_GE(v.page_hinkley_stat, 0.0);
    EXPECT_EQ(v.drifted, v.mean_trip || v.page_hinkley_trip);
    if (n == 0) {
      EXPECT_EQ(v.window_mean_qerror, 0.0);
    } else {
      EXPECT_GE(v.window_mean_qerror, 1.0);
    }
    if (n < cfg.min_samples) {
      EXPECT_FALSE(v.drifted);
    } else if (has_inf_or_nan) {
      EXPECT_TRUE(v.drifted);
    }
  }
}

TEST(DriftDetectorTest, BaselinesAndPerEnvOverrides) {
  adapt::DriftConfig d;
  d.min_samples = 4;
  d.mean_ratio_threshold = 2.0;
  d.ph_lambda = 1e9;  // isolate the mean-ratio test
  adapt::DriftDetector det(d);
  EXPECT_EQ(det.Baseline(3), d.fallback_baseline);

  std::vector<double> window(4, 3.0);
  // Fallback baseline 1.0: ratio 3.0 > 2.0 trips.
  EXPECT_TRUE(det.Evaluate(3, window).drifted);
  // With the real fit-time baseline the same window is fine.
  det.SetBaseline(3, 2.0);
  EXPECT_EQ(det.Baseline(3), 2.0);
  EXPECT_FALSE(det.Evaluate(3, window).drifted);
  // Per-env threshold override tightens just this environment.
  adapt::DriftConfig strict = d;
  strict.mean_ratio_threshold = 1.2;
  det.SetEnvConfig(3, strict);
  EXPECT_TRUE(det.Evaluate(3, window).drifted);
  // Wholesale baseline refresh (what a successful retrain does).
  det.SetBaselines({{3, 3.0}});
  EXPECT_FALSE(det.Evaluate(3, window).drifted);
}

// ------------------------------------- retrain stats merge (bugfix) + io

TEST(RetrainTest, MergesStatsAndRoundTripsThroughArtifact) {
  SharedFixtures* f = Fixtures();
  std::unique_ptr<Pipeline> trainer = FitTrainer(f);
  const size_t fit_epochs = trainer->train_stats().loss_curve.size();
  ASSERT_GT(fit_epochs, 0u);
  EXPECT_FALSE(trainer->env_baseline_qerror().empty());

  const std::string pre_path = TempPath("pre_retrain.qcfa");
  ASSERT_TRUE(trainer->Save(pre_path).ok());

  std::vector<PlanSample> drifted = ScaledLabels(f->train, 64, 2.0);
  TrainConfig rt;
  rt.epochs = 2;
  rt.eval_every = 1;
  rt.eval_set.assign(f->test.begin(), f->test.begin() + 16);
  TrainStats rstats;
  ASSERT_TRUE(trainer->Retrain(drifted, rt, &rstats).ok());

  // The caller sees just this retrain; the pipeline merges with history.
  EXPECT_EQ(rstats.loss_curve.size(), 2u);
  const TrainStats& merged = trainer->train_stats();
  ASSERT_EQ(merged.loss_curve.size(), fit_epochs + 2);
  EXPECT_EQ(Bits({merged.loss_curve.back()}),
            Bits({rstats.loss_curve.back()}));
  EXPECT_GE(merged.train_seconds, rstats.train_seconds);
  // Eval epochs are offset past the fit-time curve.
  ASSERT_FALSE(rstats.eval_curve.empty());
  ASSERT_FALSE(merged.eval_curve.empty());
  EXPECT_EQ(merged.eval_curve.back().first,
            rstats.eval_curve.back().first + static_cast<int>(fit_epochs));

  // Retrain -> Explain reflects the full training, not the stale fit.
  const std::string explain = trainer->Explain();
  EXPECT_NE(explain.find(std::to_string(fit_epochs + 2) + " epochs"),
            std::string::npos)
      << explain;

  // Retrain -> Save -> Load round-trips the merged curve and the refreshed
  // drift baselines (artifact section kAdaptBaseline).
  const std::string post_path = TempPath("post_retrain.qcfa");
  ASSERT_TRUE(trainer->Save(post_path).ok());
  auto loaded = Pipeline::Load(f->ctx->db.get(), &f->ctx->envs,
                               &f->ctx->templates, post_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(Bits((*loaded)->train_stats().loss_curve),
            Bits(merged.loss_curve));
  EXPECT_EQ((*loaded)->env_baseline_qerror(), trainer->env_baseline_qerror());

  // The pre-retrain artifact still describes the pre-retrain fit.
  auto pre = Pipeline::Load(f->ctx->db.get(), &f->ctx->envs,
                            &f->ctx->templates, pre_path);
  ASSERT_TRUE(pre.ok());
  EXPECT_EQ((*pre)->train_stats().loss_curve.size(), fit_epochs);

  ASSERT_TRUE(Fs::Default()->RemoveFile(pre_path).ok());
  ASSERT_TRUE(Fs::Default()->RemoveFile(post_path).ok());
}

TEST(RetrainTest, BitIdenticalAcrossThreadCounts) {
  SharedFixtures* f = Fixtures();
  std::vector<PlanSample> drifted = ScaledLabels(f->train, 64, 2.0);
  std::vector<PlanSample> eval(f->test.begin(), f->test.begin() + 32);
  std::vector<std::vector<uint64_t>> bits;
  for (int threads : {1, 2, 4}) {
    PipelineConfig cfg = QppConfig();
    cfg.parallelism.num_threads = threads;
    auto p = f->ctx->FitPipeline(cfg, f->train);
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    TrainConfig rt;
    rt.epochs = 3;
    ASSERT_TRUE((*p)->Retrain(drifted, rt, nullptr).ok());
    auto preds = (*p)->PredictBatch(eval);
    ASSERT_TRUE(preds.ok());
    bits.push_back(Bits(*preds));
  }
  EXPECT_EQ(bits[0], bits[1]);
  EXPECT_EQ(bits[0], bits[2]);
}

// ------------------------------------------------- the loop, end to end

TEST(AdaptE2ETest, DriftTripsBackgroundRetrainSwapAndRecovers) {
  SharedFixtures* f = Fixtures();
  std::unique_ptr<Pipeline> trainer = FitTrainer(f);
  const size_t fit_epochs = trainer->train_stats().loss_curve.size();
  const std::string path = TempPath("e2e.qcfa");
  ASSERT_TRUE(trainer->Save(path).ok());

  // Serving side: hot-swappable server under a FakeClock. Batches flush on
  // batch-full only (the fake deadline never arrives), so the test is
  // sleep-free and fully deterministic.
  FakeClock clock;
  SwappableModel models;
  AsyncServeConfig scfg;
  scfg.max_batch = 8;
  scfg.max_delay_micros = 1'000'000;
  auto server = Pipeline::ServeAsync(&models, scfg, &clock);

  SwapOptions init;
  init.probe.assign(f->test.begin(), f->test.begin() + 8);
  auto init_want = trainer->PredictBatch(init.probe);
  ASSERT_TRUE(init_want.ok());
  init.expected = *init_want;
  auto v1 = LoadAndSwap(f->ctx->db.get(), &f->ctx->envs, &f->ctx->templates,
                        path, init, &models, server.get());
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  std::shared_ptr<const Pipeline> old_gen = *v1;
  ASSERT_EQ(models.version(), 1u);

  adapt::AdaptationConfig acfg;
  acfg.window.window_capacity = 64;
  acfg.window.label_capacity = 256;
  acfg.drift.min_samples = 16;
  acfg.drift.ph_delta = 0.1;
  acfg.drift.ph_lambda = 8.0;
  acfg.evaluate_every = 8;
  acfg.min_retrain_samples = 32;
  acfg.retrain.epochs = 10;
  acfg.artifact_path = path;
  adapt::AdaptationController controller(trainer.get(), &models, acfg,
                                         server.get());
  server->set_observation_listener(&controller);

  // Submits full batches of 8 and reports each reply with the observed
  // latency scale * fit-time label; stops early once the detector trips.
  auto feed = [&](size_t begin, size_t count, double scale) {
    for (size_t base = begin; base < begin + count; base += 8) {
      std::vector<std::future<Result<double>>> futures;
      std::vector<size_t> idx;
      for (size_t k = 0; k < 8; ++k) {
        const size_t i = (base + k) % f->train.size();
        idx.push_back(i);
        futures.push_back(
            server->Submit(*f->train[i].plan, f->train[i].env_id));
      }
      for (size_t k = 0; k < 8; ++k) {
        Result<double> r = futures[k].get();
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        const PlanSample& s = f->train[idx[k]];
        server->ReportObserved(*s.plan, s.env_id, *r, scale * s.label_ms);
      }
      if (scale != 1.0 && controller.stats().drift_trips > 0) return;
    }
  };

  // Phase 1 — healthy traffic: observed latency equals the label the model
  // was fitted on, so windows hover at the fit-time baseline. No trips.
  feed(0, 64, 1.0);
  adapt::AdaptationStats healthy = controller.stats();
  EXPECT_EQ(healthy.observations, 64u);
  EXPECT_GT(healthy.windows_evaluated, 0u);
  EXPECT_EQ(healthy.drift_trips, 0u);
  EXPECT_EQ(models.version(), 1u);

  // Phase 2 — the world got 4x slower. The detector trips, the background
  // worker warm-start retrains on the buffered labeled samples, saves, and
  // publishes through LoadAndSwap.
  feed(64, 160, 4.0);
  controller.WaitForIdle();
  adapt::AdaptationStats drifted = controller.stats();
  EXPECT_GE(drifted.drift_trips, 1u);
  ASSERT_GE(drifted.swaps_published, 1u);
  EXPECT_EQ(drifted.cycles_skipped, 0u);
  EXPECT_EQ(drifted.retrain_failures, 0u);
  EXPECT_EQ(drifted.save_failures, 0u);
  EXPECT_EQ(drifted.swaps_rejected, 0u);
  EXPECT_TRUE(controller.last_cycle_status().ok())
      << controller.last_cycle_status().ToString();
  EXPECT_EQ(models.version(), 1u + drifted.swaps_published);
  AsyncServeStats sstats = server->stats();
  EXPECT_EQ(sstats.swaps_published, 1u + drifted.swaps_published);
  EXPECT_EQ(sstats.model_version, models.version());

  // Regression for the stale-train_stats_ bug, through the live loop: the
  // trainer's stats now cover fit + every adaptation retrain.
  EXPECT_EQ(trainer->train_stats().loss_curve.size(),
            fit_epochs + static_cast<size_t>(drifted.swaps_published) * 10u);

  // Recovery: on the drifted workload the published generation beats the
  // one it replaced.
  std::vector<PlanSample> drifted_eval = ScaledLabels(f->train, 64, 4.0);
  std::vector<double> actuals;
  for (const PlanSample& s : drifted_eval) actuals.push_back(s.label_ms);
  auto old_preds = old_gen->PredictBatch(drifted_eval);
  auto cur = models.Current();
  ASSERT_NE(cur, nullptr);
  auto new_preds = cur->PredictBatch(drifted_eval);
  ASSERT_TRUE(old_preds.ok() && new_preds.ok());
  const double q_old = Mean(QErrors(actuals, *old_preds));
  const double q_new = Mean(QErrors(actuals, *new_preds));
  EXPECT_LT(q_new, q_old) << "retrained model did not recover on the "
                             "drifted workload (old " << q_old << ", new "
                          << q_new << ")";

  // Replies after the swap are bit-identical to the trainer that produced
  // the published artifact.
  std::vector<PlanSample> probe(f->test.begin(), f->test.begin() + 8);
  auto want = trainer->PredictBatch(probe);
  ASSERT_TRUE(want.ok());
  std::vector<std::future<Result<double>>> futures;
  for (const PlanSample& s : probe) {
    futures.push_back(server->Submit(*s.plan, s.env_id));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    Result<double> r = futures[i].get();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(Bits({*r})[0], Bits({(*want)[i]})[0]) << i;
  }

  server->set_observation_listener(nullptr);
  controller.Stop();
  server->Shutdown();
  ASSERT_TRUE(Fs::Default()->RemoveFile(path).ok());
}

// ------------------------------------------------------------ failure legs

/// Controller wired for manual cycles: drift auto-tripping is disabled
/// (huge min_samples) so the test drives RunCycleNow deterministically.
adapt::AdaptationConfig ManualCycleConfig(const std::string& path) {
  adapt::AdaptationConfig acfg;
  acfg.drift.min_samples = 1u << 20;
  acfg.min_retrain_samples = 16;
  acfg.retrain.epochs = 2;
  acfg.artifact_path = path;
  return acfg;
}

TEST(AdaptFailureTest, FailedSaveLeavesServingBitIdentical) {
  SharedFixtures* f = Fixtures();
  std::unique_ptr<Pipeline> trainer = FitTrainer(f);
  const std::string path = TempPath("fail_save.qcfa");
  FaultInjectingFs fs(Fs::Default());
  ASSERT_TRUE(trainer->Save(path, &fs).ok());

  SwappableModel models;
  auto v1 = LoadAndSwap(f->ctx->db.get(), &f->ctx->envs, &f->ctx->templates,
                        path, {}, &models, nullptr, &fs);
  ASSERT_TRUE(v1.ok());
  std::vector<PlanSample> probe(f->test.begin(), f->test.begin() + 8);
  auto before = models.Current()->PredictBatch(probe);
  ASSERT_TRUE(before.ok());

  adapt::AdaptationController controller(trainer.get(), &models,
                                         ManualCycleConfig(path), nullptr,
                                         &fs);
  std::vector<PlanSample> drifted = ScaledLabels(f->train, 32, 4.0);
  for (const PlanSample& s : drifted) {
    controller.OnObservation(*s.plan, s.env_id, s.label_ms / 4.0, s.label_ms);
  }

  // Every fsync fails: the retrain succeeds but the save cannot publish a
  // new artifact. Typed counter, serving version untouched.
  FaultInjectionConfig fault;
  fault.fail_fsync = true;
  fs.Arm(fault);
  Status cycle = controller.RunCycleNow();
  EXPECT_FALSE(cycle.ok());
  adapt::AdaptationStats stats = controller.stats();
  EXPECT_EQ(stats.cycles_started, 1u);
  EXPECT_EQ(stats.save_failures, 1u);
  EXPECT_EQ(stats.retrain_failures, 0u);
  EXPECT_EQ(stats.swaps_published, 0u);
  EXPECT_EQ(models.version(), 1u);
  auto after = models.Current()->PredictBatch(probe);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(Bits(*before), Bits(*after));

  // The previously published artifact survived the failed save (atomic
  // rename): it still loads and still matches the serving version.
  fs.Arm(FaultInjectionConfig{});
  auto reload = Pipeline::Load(f->ctx->db.get(), &f->ctx->envs,
                               &f->ctx->templates, path, &fs);
  ASSERT_TRUE(reload.ok()) << reload.status().ToString();
  auto reload_preds = (*reload)->PredictBatch(probe);
  ASSERT_TRUE(reload_preds.ok());
  EXPECT_EQ(Bits(*before), Bits(*reload_preds));

  controller.Stop();
  ASSERT_TRUE(Fs::Default()->RemoveFile(path).ok());
}

TEST(AdaptFailureTest, RejectedSwapLeavesServingBitIdentical) {
  SharedFixtures* f = Fixtures();
  std::unique_ptr<Pipeline> trainer = FitTrainer(f);
  const std::string path = TempPath("reject_swap.qcfa");
  FaultInjectingFs fs(Fs::Default());
  ASSERT_TRUE(trainer->Save(path, &fs).ok());

  SwappableModel models;
  AsyncServeConfig scfg;
  auto server = Pipeline::ServeAsync(&models, scfg);
  auto v1 = LoadAndSwap(f->ctx->db.get(), &f->ctx->envs, &f->ctx->templates,
                        path, {}, &models, server.get(), &fs);
  ASSERT_TRUE(v1.ok());
  std::vector<PlanSample> probe(f->test.begin(), f->test.begin() + 8);
  auto before = models.Current()->PredictBatch(probe);
  ASSERT_TRUE(before.ok());

  adapt::AdaptationController controller(trainer.get(), &models,
                                         ManualCycleConfig(path),
                                         server.get(), &fs);
  std::vector<PlanSample> drifted = ScaledLabels(f->train, 32, 4.0);
  for (const PlanSample& s : drifted) {
    controller.OnObservation(*s.plan, s.env_id, s.label_ms / 4.0, s.label_ms);
  }

  // Reads are silently truncated: the retrained artifact saves fine, but
  // LoadAndSwap's validation rejects the candidate (CRC damage) and the
  // old version keeps serving.
  FaultInjectionConfig fault;
  fault.short_read_bytes = 100;
  fs.Arm(fault);
  Status cycle = controller.RunCycleNow();
  EXPECT_FALSE(cycle.ok());
  EXPECT_EQ(cycle.code(), StatusCode::kDataLoss) << cycle.ToString();
  adapt::AdaptationStats stats = controller.stats();
  EXPECT_EQ(stats.save_failures, 0u);
  EXPECT_EQ(stats.swaps_rejected, 1u);
  EXPECT_EQ(stats.swaps_published, 0u);
  EXPECT_EQ(models.version(), 1u);
  EXPECT_EQ(server->stats().swaps_rejected, 1u);
  auto after = models.Current()->PredictBatch(probe);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(Bits(*before), Bits(*after));

  // With the fault cleared the very next cycle publishes: the loop heals
  // itself once I/O recovers.
  fs.Arm(FaultInjectionConfig{});
  ASSERT_TRUE(controller.RunCycleNow().ok())
      << controller.last_cycle_status().ToString();
  EXPECT_EQ(controller.stats().swaps_published, 1u);
  EXPECT_EQ(models.version(), 2u);

  controller.Stop();
  server->Shutdown();
  ASSERT_TRUE(Fs::Default()->RemoveFile(path).ok());
}

// ------------------------------------------------------------------ stress

TEST(AdaptStressTest, ContinuousAdaptationServesOnlyWholeVersions) {
  SharedFixtures* f = Fixtures();
  std::unique_ptr<Pipeline> trainer = FitTrainer(f);
  const std::string path = TempPath("stress.qcfa");
  ASSERT_TRUE(trainer->Save(path).ok());

  SwappableModel models;
  AsyncServeConfig scfg;
  scfg.max_batch = 16;
  scfg.max_delay_micros = 200;
  scfg.num_workers = 2;
  auto server = Pipeline::ServeAsync(&models, scfg);
  auto v1 = LoadAndSwap(f->ctx->db.get(), &f->ctx->envs, &f->ctx->templates,
                        path, {}, &models, server.get());
  ASSERT_TRUE(v1.ok());

  const size_t kProbe = 16;
  std::vector<PlanSample> probe(f->test.begin(), f->test.begin() + kProbe);

  // Per-version prediction log. Slot v is written once, by the single
  // thread that published version v (the worker's on_publish hook or this
  // thread for v1), and read only after that thread is joined.
  constexpr size_t kMaxVersions = 256;
  std::vector<std::vector<uint64_t>> version_bits(kMaxVersions);
  {
    auto v1_preds = (*v1)->PredictBatch(probe);
    ASSERT_TRUE(v1_preds.ok());
    version_bits[1] = Bits(*v1_preds);
  }

  adapt::AdaptationConfig acfg;
  acfg.window.window_capacity = 32;
  acfg.window.label_capacity = 128;
  acfg.drift.min_samples = 8;
  acfg.drift.mean_ratio_threshold = 1.2;
  acfg.evaluate_every = 4;
  acfg.min_retrain_samples = 16;
  acfg.retrain.epochs = 1;
  acfg.probe_size = 4;
  acfg.artifact_path = path;
  acfg.on_publish = [&](const std::shared_ptr<const Pipeline>& p,
                        uint64_t version) {
    auto preds = p->PredictBatch(probe);
    QCFE_CHECK(preds.ok(), "stress on_publish predict failed");
    QCFE_CHECK(version < kMaxVersions, "stress ran away with versions");
    version_bits[version] = Bits(*preds);
  };
  adapt::AdaptationController controller(trainer.get(), &models, acfg,
                                         server.get());
  server->set_observation_listener(&controller);

  // Callers hammer the server and keep reporting 4x-drifted observations,
  // so adaptation cycles run continuously underneath the traffic.
  constexpr int kCallers = 4;
  constexpr int kRounds = 100;
  struct Reply {
    size_t index;
    uint64_t bits;
  };
  std::vector<std::vector<Reply>> replies(kCallers);
  std::atomic<int> failures{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const size_t i = static_cast<size_t>((t + round) % kProbe);
        auto future = server->Submit(*probe[i].plan, probe[i].env_id);
        Result<double> r = future.get();
        if (!r.ok()) {
          ++failures;
          continue;
        }
        replies[static_cast<size_t>(t)].push_back({i, Bits({*r})[0]});
        server->ReportObserved(*probe[i].plan, probe[i].env_id, *r,
                               4.0 * probe[i].label_ms);
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  server->set_observation_listener(nullptr);
  controller.Stop();  // joins the worker: every publish is now logged
  server->Shutdown();

  adapt::AdaptationStats stats = controller.stats();
  EXPECT_GE(stats.swaps_published, 1u);
  EXPECT_EQ(stats.retrain_failures, 0u);
  EXPECT_EQ(stats.save_failures, 0u);
  EXPECT_EQ(stats.swaps_rejected, 0u);
  const uint64_t last_version = models.version();
  ASSERT_EQ(last_version, 1u + stats.swaps_published);

  // Every reply must bit-match exactly one published version's prediction
  // for its plan — a torn batch or half-applied swap would match none.
  int mismatches = 0;
  for (const auto& caller_replies : replies) {
    for (const Reply& reply : caller_replies) {
      bool matched = false;
      for (uint64_t v = 1; v <= last_version && !matched; ++v) {
        matched = !version_bits[v].empty() &&
                  version_bits[v][reply.index] == reply.bits;
      }
      if (!matched) ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(Fs::Default()->RemoveFile(path).ok());
}

}  // namespace
}  // namespace qcfe
