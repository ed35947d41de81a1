/// The measured lifecycle: setup -> fit (qppnet, mscn) -> serve -> adapt,
/// driven entirely through the library's public API. Every workload runs
/// all four phases, so every run reports every end-to-end metric; the
/// workloads differ in the inputs (schema, plan depth, corpus size and how
/// much the request stream repeats itself).
///
/// With tracing on, the same run also replays each phase stage by stage
/// through the public calls it is made of, with a span around each call,
/// and derives the per-layer metrics from those spans.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "adapt/adaptation_controller.h"
#include "core/pipeline.h"
#include "core/qcfe.h"
#include "engine/knobs.h"
#include "harness/context.h"
#include "models/mscn.h"
#include "models/qppnet.h"
#include "models/registry.h"
#include "nn/layers.h"
#include "openloop.h"
#include "perfbench.h"
#include "serve/async_server.h"
#include "serve/model_swap.h"
#include "util/fs.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "workload/benchmark.h"
#include "workload/collector.h"

namespace perfbench {

using namespace qcfe;

namespace {

/// Setups at the start of a run (the last one is kept), and throwaway ones
/// after serving and at the end: setup_s is the median over all of them, so
/// it samples the machine over the whole run rather than its first seconds.
constexpr int kSetupRepeats = 3;
constexpr int kLateSetups = 2;  ///< after serving, and as many at the end
constexpr int kFitRepeats = 5;  ///< Pipeline::Fit calls per estimator
constexpr size_t kCorpusSize = 1500;  ///< labelled queries per setup
/// Fixed-rate windows, each followed by one goodput search.
constexpr int kServeRounds = 5;
/// Latency percentiles are taken per consecutive slice of a phase, so one
/// stall of the machine moves one slice, not the figure. At --seconds 20
/// every slice holds at least 1000 requests, so a slice's p99 rests on ten
/// or more samples beyond it.
constexpr size_t kWindowSlices = 4;   ///< per fixed-rate window
constexpr size_t kStepSlices = 8;     ///< goodput search steps
constexpr size_t kAdaptSlices = 16;   ///< the adapt phase
/// A reported latency is the lower quartile over its slices. On a shared VM
/// the host's contention comes in bursts of seconds to minutes that raise
/// every latency inside them. As long as a quarter of the slices escape the
/// burst, the lower quartile reads them. A change in the code moves every
/// slice, so it moves the quartile as well.
constexpr double kSliceQuartile = 0.25;
/// Serving knobs of the benchmark's server: the default batch size, a 1 ms
/// deadline, one flusher, and a queue bound the rate search never reaches,
/// so an overloaded step shows up as latency rather than as rejections.
constexpr size_t kMaxBatch = 64;
constexpr int64_t kMaxDelayMicros = 1000;
constexpr size_t kMaxQueue = size_t{1} << 20;
constexpr double kServeRate = 10000;     ///< req/s of the fixed-rate windows
constexpr double kLatencyLimitMs = 10;  ///< p99 limit of goodput_rps
constexpr double kAdaptRate = 4000;     ///< req/s while replies are observed
constexpr int kAdaptEpisodes = 11;      ///< drift episodes after a healthy one
constexpr int kRetrainEpochs = 20;      ///< per adaptation cycle
constexpr size_t kLabelCapacity = 256;  ///< the retrain corpus
constexpr double kDrift = 4.0;

double Seconds(int64_t begin_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) * 1e-9;
}

double Median(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : Quantile(xs, 0.5);
}

double MeanOf(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : Mean(xs);
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Times a scope into `*out_s` and, when tracing, records it as a span.
class Stage {
 public:
  Stage(Lane* lane, const char* name, double* out_s)
      : span_(lane, name), out_s_(out_s), begin_ns_(NowNs()) {}
  ~Stage() { *out_s_ += Seconds(begin_ns_, NowNs()); }
  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

 private:
  ScopedSpan span_;
  double* out_s_;
  int64_t begin_ns_;
};

// ---------------------------------------------------------------- setup ----

/// Database, environments, templates and labeled corpus. Pipelines keep
/// pointers into it, so it lives at a fixed address for the whole run.
struct World {
  std::unique_ptr<BenchmarkWorkload> workload;
  std::unique_ptr<Database> db;
  std::vector<Environment> envs;
  std::vector<QueryTemplate> templates;
  LabeledQuerySet corpus;
};

Status BuildWorld(const HarnessOptions& h, Lane* lane, World* w) {
  ScopedSpan span(lane, "workload.setup");
  Result<std::unique_ptr<BenchmarkWorkload>> workload =
      MakeBenchmark(h.benchmark);
  if (!workload.ok()) return workload.status();
  w->workload = std::move(workload.value());
  {
    ScopedSpan build(lane, "workload.build_db");
    w->db = w->workload->BuildDatabase(h.scale_factor, h.seed);
  }
  const uint64_t seed = h.seed;
  w->envs = EnvironmentSampler::Sample(h.num_envs, HardwareProfile::H1(),
                                       seed * 31 + 5);
  w->templates = w->workload->Templates();
  ThreadPool pool(kThreads);
  ScopedSpan collect(lane, "workload.collect");
  QueryCollector collector(w->db.get(), &w->envs);
  Result<LabeledQuerySet> corpus =
      collector.Collect(w->templates, kCorpusSize, seed * 13 + 3, &pool);
  if (!corpus.ok()) return corpus.status();
  w->corpus = std::move(corpus.value());
  return Status::OK();
}

// ------------------------------------------------------------ nn shapes ----

double MlpFlops(const Mlp& mlp) {
  double flops = 0.0;
  for (const auto& layer : mlp.layers()) {
    if (layer->kind() != LayerKind::kLinear) continue;
    const auto* linear = static_cast<const LinearLayer*>(layer.get());
    flops += 2.0 * static_cast<double>(linear->in_dim() * linear->out_dim());
  }
  return flops;
}

double QppPlanFlops(const QppNet& model, const PlanNode& node) {
  double flops = MlpFlops(model.unit(node.op));
  for (const auto& child : node.children) flops += QppPlanFlops(model, *child);
  return flops;
}

void CountMscnSets(const PlanNode& node, size_t* joins, size_t* preds,
                   size_t* ops) {
  if (node.join.has_value()) ++*joins;
  *preds += node.filters.size();
  ++*ops;
  for (const auto& child : node.children) {
    CountMscnSets(*child, joins, preds, ops);
  }
}

/// Forward flops of one plan, computed from layer shapes: a linear layer
/// of shape (in, out) costs 2*in*out per row. QPPNet runs one unit per plan
/// node; MSCN runs its join, predicate and operator modules once per set
/// element (an empty set is one zero row) and its output module once.
/// Mscn::Params() lists the four two-layer modules in that order as
/// (W, b, W, b) each.
double PlanFlops(CostModel* model, const PlanNode& plan) {
  if (auto* qpp = dynamic_cast<QppNet*>(model)) return QppPlanFlops(*qpp, plan);
  auto* mscn = dynamic_cast<Mscn*>(model);
  if (mscn == nullptr) return 0.0;
  std::vector<Matrix*> params = mscn->Params();
  if (params.size() != 16) return 0.0;
  double module[4] = {0, 0, 0, 0};
  for (size_t m = 0; m < 4; ++m) {
    for (size_t k : {4 * m, 4 * m + 2}) {
      module[m] += 2.0 * static_cast<double>(params[k]->rows() * params[k]->cols());
    }
  }
  size_t joins = 0, preds = 0, ops = 0;
  CountMscnSets(plan, &joins, &preds, &ops);
  return static_cast<double>(std::max<size_t>(joins, 1)) * module[0] +
         static_cast<double>(std::max<size_t>(preds, 1)) * module[1] +
         static_cast<double>(std::max<size_t>(ops, 1)) * module[2] + module[3];
}

size_t ParamCount(CostModel* model) {
  std::vector<Matrix*> params;
  if (auto* qpp = dynamic_cast<QppNet*>(model)) params = qpp->Params();
  if (auto* mscn = dynamic_cast<Mscn*>(model)) params = mscn->Params();
  size_t n = 0;
  for (const Matrix* m : params) n += m->rows() * m->cols();
  return n;
}

// ------------------------------------------------------------------ fit ----

PipelineConfig FitConfig(const HarnessOptions& h, const std::string& estimator,
                         uint64_t seed) {
  PipelineConfig cfg;  // the full QCFE recipe: FST snapshot + diff-prop
  cfg.estimator = estimator;
  cfg.train.epochs = estimator == "qppnet" ? h.qpp_epochs : h.mscn_epochs;
  cfg.parallelism.num_threads = kThreads;
  cfg.seed = seed;
  return cfg;
}

std::vector<double> Labels(const std::vector<PlanSample>& samples) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const PlanSample& s : samples) out.push_back(s.label_ms);
  return out;
}

/// Core-layer figures summed over both estimators' replays (snapshot and
/// reduction run once per fit); the counts and the kept fraction are the
/// served qppnet pipeline's.
struct FitTotals {
  double snapshot_s = 0.0;
  double snapshot_queries = 0.0;
  double snapshot_sim_ms = 0.0;
  double reduction_s = 0.0;
  double reduction_kept_frac = 0.0;
};

/// Stage times of one replayed fit.
struct FitStages {
  double snapshot_s = 0, pretrain_s = 0, reduction_s = 0, mask_s = 0,
         train_s = 0, baseline_s = 0;
  double snapshot_queries = 0, snapshot_sim_ms = 0, kept_frac = 0;
  double params = 0, train_flops = 0;
  double Sum() const {
    return snapshot_s + pretrain_s + reduction_s + mask_s + train_s + baseline_s;
  }
};

/// Replays Pipeline::Fit once, stage by stage, through the public calls it
/// is made of, on the fitted pipeline's own worker pool, and gates that the
/// replayed model predicts the held-out split bit-identically to the fitted
/// pipeline (`fitted_preds`). Returns an error description, or an empty
/// string.
std::string ReplayFit(const World& w, const PipelineConfig& cfg,
                      const std::vector<PlanSample>& train,
                      const std::vector<PlanSample>& test,
                      const std::vector<double>& fitted_preds, ThreadPool* pool,
                      Lane* lane, FitStages* out) {
  const std::string& est = cfg.estimator;
  EstimatorRegistry& registry = EstimatorRegistry::Global();
  Result<EstimatorInfo> info = registry.Info(est);
  if (!info.ok()) return info.status().ToString();
  ScopedSpan replay_span(lane, "fit.replay");
  BaseFeaturizer base(w.db->catalog());
  SnapshotStore store;
  size_t snapshot_queries = 0, snapshot_templates = 0;
  {
    Stage stage(lane, "core.snapshot", &out->snapshot_s);
    SnapshotBuilder builder(w.db.get(), &w.templates);
    Status s = builder.ComputeSnapshots(
        w.envs, cfg.snapshot_from_templates, cfg.snapshot_scale, cfg.seed,
        &store, &out->snapshot_sim_ms, &snapshot_queries, &snapshot_templates,
        cfg.snapshot_granularity, pool);
    if (!s.ok()) return "snapshot: " + s.ToString();
  }
  out->snapshot_queries = static_cast<double>(snapshot_queries);
  SnapshotFeaturizer snapshot(
      &base, &store,
      cfg.snapshot_granularity == SnapshotGranularity::kOperatorTable);
  std::unique_ptr<CostModel> provisional;
  {
    Stage stage(lane, "models.pretrain", &out->pretrain_s);
    Result<std::unique_ptr<CostModel>> created =
        registry.Create(est, {w.db->catalog(), &snapshot, cfg.seed + 1});
    if (!created.ok()) return "create: " + created.status().ToString();
    provisional = std::move(created.value());
    provisional->set_thread_pool(pool);
    TrainConfig pre = cfg.train;
    pre.epochs = cfg.pre_reduction_epochs;
    pre.eval_every = 0;
    TrainStats stats;
    Status s = provisional->Train(train, pre, &stats);
    if (!s.ok()) return "pretrain: " + s.ToString();
  }
  ReductionResult reduction;
  {
    Stage stage(lane, "core.reduction", &out->reduction_s);
    Result<ReductionResult> reduced =
        ReduceFeatures(*provisional, train, cfg.reduction, pool);
    if (!reduced.ok()) return "reduction: " + reduced.status().ToString();
    reduction = std::move(reduced.value());
  }
  out->kept_frac = 1.0 - reduction.ReductionRatio();
  std::unique_ptr<MaskedFeaturizer> masked;
  {
    Stage stage(lane, "core.mask", &out->mask_s);
    masked = std::make_unique<MaskedFeaturizer>(
        &snapshot, reduction.KeptMap(info->uniform_feature_width));
  }
  std::unique_ptr<CostModel> model;
  {
    Stage stage(lane, "models.train", &out->train_s);
    Result<std::unique_ptr<CostModel>> created =
        registry.Create(est, {w.db->catalog(), masked.get(), cfg.seed + 2});
    if (!created.ok()) return "create: " + created.status().ToString();
    model = std::move(created.value());
    model->set_thread_pool(pool);
    TrainStats stats;
    Status s = model->Train(train, cfg.train, &stats);
    if (!s.ok()) return "train: " + s.ToString();
  }
  {
    // Pipeline::Fit ends by scoring the training corpus for the drift
    // baselines.
    Stage stage(lane, "models.baseline", &out->baseline_s);
    Result<std::vector<double>> scored = model->PredictBatchMs(train, pool);
    if (!scored.ok()) return "baseline: " + scored.status().ToString();
  }

  // Gate: the decomposition measures the same program.
  Result<std::vector<double>> replayed = model->PredictBatchMs(test, pool);
  if (!replayed.ok() || replayed->size() != fitted_preds.size()) {
    return "held-out prediction failed";
  }
  size_t mismatches = 0;
  for (size_t i = 0; i < replayed->size(); ++i) {
    if (!SameBits((*replayed)[i], fitted_preds[i])) ++mismatches;
  }
  if (mismatches > 0) {
    return std::to_string(mismatches) +
           " held-out predictions differ from Pipeline::Fit";
  }

  double forward_flops = 0.0;
  for (const PlanSample& s : train) forward_flops += PlanFlops(model.get(), *s.plan);
  // Training costs about three forward passes per sample per epoch
  // (forward, backward to the inputs, backward to the weights).
  out->train_flops = 3.0 * forward_flops * static_cast<double>(cfg.train.epochs);
  out->params = static_cast<double>(ParamCount(model.get()));
  return "";
}

/// Reports the median of each replayed stage and of their sum, reconciled
/// against the median Pipeline::Fit time.
void ReportFitStages(const std::string& est, const std::vector<FitStages>& runs,
                     double fit_s, Report* report, FitTotals* totals) {
  if (runs.empty()) return;
  auto med = [&](double FitStages::*field) {
    std::vector<double> xs;
    for (const FitStages& run : runs) xs.push_back(run.*field);
    return Median(xs);
  };
  std::vector<double> sums;
  for (const FitStages& run : runs) sums.push_back(run.Sum());
  const double stages_s = Median(sums);
  const double train_s = med(&FitStages::train_s);
  report->Layer("models.pretrain_s." + est, med(&FitStages::pretrain_s), "s");
  report->Layer("models.train_s." + est, train_s, "s");
  report->Layer("models.params." + est, runs[0].params, "count");
  report->Layer("nn.train_gflops." + est, runs[0].train_flops / train_s * 1e-9,
                "GFLOP/s");
  report->Layer("fit.stages_s." + est, stages_s, "s");
  report->Layer("reconcile.fit_residual_frac." + est, (stages_s - fit_s) / fit_s,
                "ratio");
  std::printf("reconcile fit %-6s: snapshot %.3f + pretrain %.3f + reduction "
              "%.3f + mask %.4f + train %.3f + baseline %.3f -> "
              "median sum %.3f s vs fit_%s_s %.3f s (residual %+.1f%%)\n",
              est.c_str(), med(&FitStages::snapshot_s), med(&FitStages::pretrain_s),
              med(&FitStages::reduction_s), med(&FitStages::mask_s), train_s,
              med(&FitStages::baseline_s), stages_s,
              est.c_str(), fit_s, 100.0 * (stages_s - fit_s) / fit_s);
  totals->snapshot_s += med(&FitStages::snapshot_s);
  totals->reduction_s += med(&FitStages::reduction_s);
  if (est == "qppnet") {
    totals->snapshot_queries = runs[0].snapshot_queries;
    totals->snapshot_sim_ms = runs[0].snapshot_sim_ms;
    totals->reduction_kept_frac = runs[0].kept_frac;
  }
}

// ---------------------------------------------------------------- serve ----

std::vector<uint32_t> DrawSchedule(Rng* rng, size_t count, size_t num_requests) {
  std::vector<uint32_t> schedule(count);
  for (uint32_t& s : schedule) {
    s = static_cast<uint32_t>(rng->UniformInt(0, static_cast<int64_t>(num_requests) - 1));
  }
  return schedule;
}

/// Mean of the entries at or below the 99th percentile: a stall of the
/// machine moves the top percent, which would otherwise dominate a mean.
double TrimmedMean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  const double cut = Quantile(xs, 0.99);
  double sum = 0.0;
  size_t n = 0;
  for (double x : xs) {
    if (x <= cut) {
      sum += x;
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

/// Means of a window's per-request figures over the same requests: those
/// whose latency is at or below the window's p99. The parts of each request
/// (lateness, Submit, in-server time) then add up to its latency exactly.
struct RequestMeans {
  double latency_ms = 0, gen_late_ms = 0, submit_us = 0, in_server_ms = 0;
};

RequestMeans MeansBelowP99(const OpenLoopResult& r) {
  RequestMeans m;
  if (r.latency_ms.empty()) return m;
  const double cut = Quantile(r.latency_ms, 0.99);
  size_t n = 0;
  for (size_t i = 0; i < r.latency_ms.size(); ++i) {
    if (r.latency_ms[i] > cut) continue;
    m.latency_ms += r.latency_ms[i];
    m.gen_late_ms += r.gen_late_ms[i];
    m.submit_us += r.submit_us[i];
    m.in_server_ms += r.in_server_ms[i];
    ++n;
  }
  if (n == 0) return m;
  for (double* x : {&m.latency_ms, &m.gen_late_ms, &m.submit_us, &m.in_server_ms}) {
    *x /= static_cast<double>(n);
  }
  return m;
}

struct ServeReplay {
  double featurize_us_per_plan = 0.0;
  double dims_per_node = 0.0;
  double predict_us_per_plan = 0.0;
  double dedup_unique_frac = 0.0;
  double service_us_per_batch = 0.0;
  double flop_per_plan = 0.0;
  double forward_gflops = 0.0;
};

/// Replays a served stream, cut into batches at the observed occupancy,
/// through the calls a flush is made of: featurization of every node with
/// the active featurizer, request dedup, model resolution and the batched
/// per-request prediction.
ServeReplay ReplayServe(const SwappableModel& models,
                        const std::vector<PlanSample>& requests,
                        const std::vector<uint32_t>& schedule, double occupancy,
                        Lane* lane) {
  ServeReplay out;
  std::shared_ptr<const Pipeline> pipeline = models.Current();
  const OperatorFeaturizer* featurizer = pipeline->active_featurizer();
  const auto* qpp = dynamic_cast<const QppNet*>(&pipeline->model());
  const size_t batch = std::max<size_t>(1, static_cast<size_t>(std::lround(occupancy)));
  double featurize_s = 0, dedup_s = 0, resolve_s = 0, predict_s = 0;
  size_t plans = 0, nodes = 0, dims = 0, unique = 0, batches = 0;
  double flops = 0.0;
  ScopedSpan replay_span(lane, "serve.replay");
  for (size_t begin = 0; begin + batch <= schedule.size(); begin += batch) {
    std::vector<PlanSample> samples;
    samples.reserve(batch);
    for (size_t i = begin; i < begin + batch; ++i) {
      samples.push_back(requests[schedule[i]]);
    }
    ScopedSpan batch_span(lane, "serve.replay_batch", begin + 1);
    {
      Stage stage(lane, "featurize.encode", &featurize_s);
      for (const PlanSample& s : samples) {
        std::vector<std::pair<const PlanNode*, size_t>> stack = {{s.plan, 0}};
        while (!stack.empty()) {
          auto [node, depth] = stack.back();
          stack.pop_back();
          dims += featurizer->Encode(*node, depth, s.env_id).size();
          ++nodes;
          for (const auto& c : node->children) stack.push_back({c.get(), depth + 1});
        }
      }
    }
    std::vector<PlanSample> distinct;
    {
      Stage stage(lane, "models.dedup", &dedup_s);
      BatchRequestDedup dedup(samples);
      distinct = std::move(dedup.unique);
    }
    unique += distinct.size();
    std::shared_ptr<const CostModel> model;
    {
      Stage stage(lane, "models.resolve", &resolve_s);
      model = models.CurrentModel();
    }
    {
      Stage stage(lane, "models.predict", &predict_s);
      std::vector<CostModel::BatchPrediction> predicted =
          model->PredictBatchEach(samples, nullptr);
      (void)predicted;  // values are gated against the live server's replies
    }
    if (qpp != nullptr) {
      for (const PlanSample& s : distinct) flops += QppPlanFlops(*qpp, *s.plan);
    }
    plans += samples.size();
    ++batches;
  }
  if (plans == 0) return out;
  const double n = static_cast<double>(plans);
  out.featurize_us_per_plan = featurize_s / n * 1e6;
  out.dims_per_node = static_cast<double>(dims) / static_cast<double>(nodes);
  out.predict_us_per_plan = predict_s / n * 1e6;
  out.dedup_unique_frac = static_cast<double>(unique) / n;
  out.service_us_per_batch =
      (dedup_s + resolve_s + predict_s) / static_cast<double>(batches) * 1e6;
  out.flop_per_plan = flops / static_cast<double>(unique);
  // The forward pass proper: prediction minus the featurization it
  // contains (measured separately above on the same plans).
  const double forward_s = std::max(predict_s - featurize_s, 1e-9);
  out.forward_gflops = flops / forward_s * 1e-9;
  return out;
}

/// Fs that timestamps the calls an adaptation cycle makes, so a live cycle
/// can be cut into retrain (until Save opens its file), save (until the
/// atomic rename) and swap (load, probe and publish).
class TimingFs : public Fs {
 public:
  enum Kind : char { kSaveBegin, kSaveEnd };
  struct Event {
    Kind kind;
    int64_t ns;
  };

  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override {
    Mark(kSaveBegin);
    return base_->NewWritableFile(path);
  }
  Result<std::string> ReadFile(const std::string& path) override {
    return base_->ReadFile(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    Status s = base_->RenameFile(from, to);
    Mark(kSaveEnd);
    return s;
  }
  Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }

  /// First event of `kind` at or after `after_ns` (0 when there is none).
  int64_t First(Kind kind, int64_t after_ns) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Event& e : events_) {
      if (e.kind == kind && e.ns >= after_ns) return e.ns;
    }
    return 0;
  }

 private:
  void Mark(Kind kind) {
    const int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back({kind, now});
  }

  Fs* base_ = Fs::Default();
  std::mutex mu_;
  std::vector<Event> events_;
};

/// The q-quantile of each of `slices` consecutive slices of a window.
std::vector<double> SliceQuantiles(const std::vector<double>& latency_ms, double q,
                                   size_t slices) {
  std::vector<double> per_slice;
  const size_t n = latency_ms.size();
  for (size_t k = 0; k < slices; ++k) {
    const size_t begin = n * k / slices;
    const size_t end = n * (k + 1) / slices;
    if (end > begin) {
      per_slice.push_back(Quantile(
          std::vector<double>(latency_ms.begin() + static_cast<long>(begin),
                              latency_ms.begin() + static_cast<long>(end)),
          q));
    }
  }
  return per_slice;
}

/// The `over`-quantile (0.5 for the median) across the slices of a window
/// of each slice's q-quantile.
double SlicedQuantile(const std::vector<double>& latency_ms, double q,
                      size_t slices, double over) {
  const std::vector<double> per_slice = SliceQuantiles(latency_ms, q, slices);
  return per_slice.empty() ? 0.0 : Quantile(per_slice, over);
}

void PrintSlices(const char* what, const std::vector<double>& latency_ms,
                 double q, size_t slices) {
  std::printf("%s latency p%.0f per slice (ms):", what, 100 * q);
  for (double x : SliceQuantiles(latency_ms, q, slices)) std::printf(" %.3f", x);
  std::printf("\n");
}

/// A search step passes when its sliced p99 meets the limit, the median of
/// its last tenth does too (a growing backlog shows as a late tail), and no
/// request failed.
bool StepPasses(const OpenLoopResult& res, double limit_ms) {
  const size_t n = res.latency_ms.size();
  const std::vector<double> tail(
      res.latency_ms.begin() + static_cast<long>(n - n / 10), res.latency_ms.end());
  const double tail_p50 = tail.empty() ? 0.0 : Quantile(tail, 0.5);
  return res.failed + res.rejected == 0 &&
         SlicedQuantile(res.latency_ms, 0.99, kStepSlices, 0.5) <= limit_ms &&
         tail_p50 <= limit_ms;
}

/// Appends one window's per-request figures and counts to `out`.
void Append(const OpenLoopResult& window, OpenLoopResult* out) {
  out->sent += window.sent;
  out->ok += window.ok;
  out->failed += window.failed;
  out->rejected += window.rejected;
  for (auto field : {&OpenLoopResult::latency_ms, &OpenLoopResult::gen_late_ms,
                     &OpenLoopResult::submit_us, &OpenLoopResult::in_server_ms}) {
    (out->*field).insert((out->*field).end(), (window.*field).begin(),
                         (window.*field).end());
  }
}

/// Peak resident set (VmHWM) in MB.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  double kb = 0.0;
  if (f != nullptr) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::atof(line + 6);
    }
    std::fclose(f);
  }
  if (kb == 0.0) {
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    kb = static_cast<double>(usage.ru_maxrss);
  }
  return kb / 1024.0;
}

/// Restarts the peak-resident-set count from the current resident set.
void ResetPeakRss() {
  // Hand freed heap back first, so the new count starts from live memory.
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return;
  std::fputs("5", f);
  std::fclose(f);
}

/// CPU time counters of the whole machine from /proc/stat, in jiffies.
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};

CpuTicks ReadCpuTicks() {
  CpuTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long v[8] = {0, 0, 0, 0, 0, 0, 0, 0};  // user .. steal
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1],
                  &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    t.steal = v[7];
    for (unsigned long long x : v) t.total += x;
  }
  std::fclose(f);
  return t;
}

/// Share of the machine's CPU time the hypervisor gave to other guests
/// between two readings. On a shared VM a burst of it stalls a vCPU for
/// 10-20 ms, which is most of what moves a millisecond latency figure.
double StolenShare(const CpuTicks& before, const CpuTicks& after) {
  const uint64_t total = after.total - before.total;
  return total == 0 ? 0.0
                    : static_cast<double>(after.steal - before.steal) /
                          static_cast<double>(total);
}

void Account(const OpenLoopResult& res, Report* report) {
  report->attempted += res.sent;
  report->failed += res.failed + res.rejected;
}

}  // namespace

bool RunLifecycle(const Options& options, const Regime& r, Tracer* tracer,
                  Report* report) {
  Lane* main_lane = tracer->NewLane("main");
  const CpuTicks run_ticks = ReadCpuTicks();
  std::vector<std::pair<const char*, int64_t>> phases = {{"start", NowNs()}};
  const uint64_t seed = options.seed;
  const double S = options.seconds;
  const HarnessOptions h = OptionsFor(r.benchmark, RunScale::kQuick);

  // ---- setup: database + ANALYZE + corpus, several times; the last stays.
  // The world (data, environments, corpus) comes from the workload's own
  // seed; --seed draws the request streams.
  std::vector<double> setup_s;
  auto setup = [&](std::unique_ptr<World>* out) {
    auto fresh = std::make_unique<World>();
    const int64_t t0 = NowNs();
    Status s = BuildWorld(h, main_lane, fresh.get());
    setup_s.push_back(Seconds(t0, NowNs()));
    if (!s.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", s.ToString().c_str());
      return false;
    }
    *out = std::move(fresh);
    return true;
  };
  auto late_setups = [&] {
    for (int rep = 0; rep < kLateSetups; ++rep) {
      std::unique_ptr<World> throwaway;
      if (!setup(&throwaway)) return false;
    }
    return true;
  };
  std::unique_ptr<World> world;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    world = nullptr;  // free the previous world before building the next
    if (!setup(&world)) return false;
  }
  World& w = *world;
  phases.push_back({"setup", NowNs()});

  std::vector<PlanSample> all;
  for (const LabeledQuery& q : w.corpus.queries) {
    all.push_back({q.plan.get(), q.env_id, q.total_ms});
  }
  std::vector<PlanSample> train, test;
  // The split and the model seeds come from the world seed too: every run
  // fits the same models, so the fit times measure the same work and the
  // held-out q-errors are exact (any change is a change in behaviour).
  const TrainTestSplit split = SplitIndices(all.size(), 0.8, h.seed * 7 + 1);
  for (size_t i : split.train) train.push_back(all[i]);
  for (size_t i : split.test) test.push_back(all[i]);

  // ---- fit: Pipeline::Fit with the full QCFE recipe, then held-out error.
  FitTotals fit_totals;
  const std::string serve_path = options.work_dir + "/serve.qcfa";
  // Each estimator is fitted several times with different model seeds; the
  // time and the held-out q-errors are the medians over those fits.
  // Database::Run caches execution records by plan for the database's
  // lifetime, and fits with the same seed run the same snapshot queries. The
  // cache is emptied before every fit and every replay, so each one executes
  // its snapshot queries cold, as a first fit in production would.
  for (const std::string est : {"qppnet", "mscn"}) {
    std::vector<double> fit_s, q50, q90;
    std::unique_ptr<Pipeline> last;
    PipelineConfig cfg;
    std::vector<FitStages> replays;
    for (int rep = 0; rep < kFitRepeats; ++rep) {
      last = nullptr;
      cfg = FitConfig(h, est, h.seed * 1000 + static_cast<uint64_t>(rep));
      w.db->ClearExecutionCache();
      const int64_t t0 = NowNs();
      Result<std::unique_ptr<Pipeline>> fitted =
          Pipeline::Fit(w.db.get(), &w.envs, &w.templates, cfg, train);
      fit_s.push_back(Seconds(t0, NowNs()));
      report->attempted += 1;
      if (!fitted.ok()) {
        std::fprintf(stderr, "fit %s failed: %s\n", est.c_str(),
                     fitted.status().ToString().c_str());
        report->failed += 1;
        return false;
      }
      Result<std::vector<double>> predicted = (*fitted)->PredictBatch(test);
      if (!predicted.ok()) {
        report->Violation("held-out prediction failed for " + est);
        return false;
      }
      const std::vector<double> q = QErrors(Labels(test), *predicted);
      q50.push_back(Quantile(q, 0.5));
      q90.push_back(Quantile(q, 0.9));
      last = std::move(fitted.value());
      if (tracer->enabled()) {
        // Each fit is replayed right after it, so both see the same phase
        // of the machine.
        FitStages stages;
        w.db->ClearExecutionCache();
        const std::string error = ReplayFit(w, cfg, train, test, *predicted,
                                            last->thread_pool(), main_lane, &stages);
        if (!error.empty()) report->Violation("fit replay " + est + ": " + error);
        replays.push_back(stages);
      }
    }
    report->E2e("fit_" + est + "_s", Median(fit_s), "s");
    std::printf("fit_%s_s per repeat:", est.c_str());
    for (double x : fit_s) std::printf(" %.3f", x);
    std::printf("\n");
    report->E2e("qerror_p50_" + est, Median(q50), "ratio");
    report->E2e("qerror_p90_" + est, Median(q90), "ratio");
    ReportFitStages(est, replays, Median(fit_s), report, &fit_totals);
    // Generation 1 is served from the qppnet artifact, as in production;
    // the fitted pipeline and its worker pool go away before the next fit.
    if (est == "qppnet") {
      if (Status s = last->Save(serve_path); !s.ok()) {
        std::fprintf(stderr, "save failed: %s\n", s.ToString().c_str());
        return false;
      }
    }
  }

  phases.push_back({"fit", NowNs()});

  // ---- serve: generation 1 is loaded from the qppnet artifact and
  // published; serving runs on the generator (this thread), the collector
  // and one flusher.
  SwappableModel models;
  AsyncServeConfig serve_cfg;
  serve_cfg.max_batch = kMaxBatch;
  serve_cfg.max_delay_micros = kMaxDelayMicros;
  serve_cfg.num_workers = 1;
  serve_cfg.max_queue = kMaxQueue;
  std::unique_ptr<AsyncServer> server = Pipeline::ServeAsync(&models, serve_cfg);
  Result<std::shared_ptr<const Pipeline>> gen1 = LoadAndSwap(
      w.db.get(), &w.envs, &w.templates, serve_path, {}, &models, server.get());
  if (!gen1.ok()) {
    std::fprintf(stderr, "publish failed: %s\n", gen1.status().ToString().c_str());
    return false;
  }
  const size_t num_requests =
      r.hot_set > 0 ? std::min(r.hot_set, all.size()) : all.size();
  const std::vector<PlanSample> requests(all.begin(), all.begin() + num_requests);
  Result<std::vector<double>> expected_or = (*gen1)->PredictBatch(requests);
  if (!expected_or.ok()) {
    report->Violation("direct PredictBatch failed");
    return false;
  }
  const std::vector<double> expected = std::move(expected_or.value());

  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  size_t serve_mismatches = 0;
  std::vector<uint32_t> schedule;
  auto check_reply = [&](size_t seq, const Result<double>& reply) {
    if (reply.ok() && !SameBits(*reply, expected[schedule[seq]])) {
      ++serve_mismatches;
    }
  };

  // Warm-up, then the fixed-rate windows interleaved with the goodput
  // searches: a slow phase of the machine then hits one window or one
  // search, and the medians over them absorb it.
  schedule = DrawSchedule(&rng, static_cast<size_t>(kServeRate * 0.025 * S),
                          num_requests);
  Account(RunOpenLoop(server.get(), requests, schedule, kServeRate, nullptr,
                      check_reply),
          report);

  // Rate search for goodput_rps: from `start`, step by `factor` until one
  // step passes and one misses, then bisect geometrically to 4%. The first
  // search steps by 1.5x from the workload's search rate; later ones
  // bracket the previous result by 15%.
  const double step_s = 0.015 * S;
  auto search = [&](double start, double factor) {
    double lo = 0.0, hi = 0.0;
    double rate = start;
    std::printf("goodput search (limit p99 <= %.1f ms):", kLatencyLimitMs);
    for (int steps = 0; steps < 10; ++steps) {
      schedule = DrawSchedule(&rng, static_cast<size_t>(rate * step_s), num_requests);
      const OpenLoopResult res =
          RunOpenLoop(server.get(), requests, schedule, rate, nullptr, check_reply);
      Account(res, report);
      const bool pass = StepPasses(res, kLatencyLimitMs);
      std::printf(" %.0f:%s", rate, pass ? "ok" : "miss");
      if (pass) {
        lo = rate;
      } else {
        hi = rate;
      }
      if (hi == 0.0) {
        rate = lo * factor;
      } else if (lo == 0.0) {
        rate = hi / factor;
      } else if (hi / lo > 1.04) {
        rate = std::sqrt(lo * hi);
      } else {
        break;
      }
    }
    std::printf(" -> %.0f\n", lo);
    return lo;
  };

  OpenLoopResult fixed;  // the fixed-rate windows, concatenated
  std::vector<uint32_t> fixed_schedule;
  std::vector<double> goodput;
  uint64_t batches_flushed = 0, served = 0, deadline_flushes = 0, rejected = 0;
  double rss_before_search_mb = 0.0;
  for (int i = 0; i < kServeRounds; ++i) {
    schedule = DrawSchedule(&rng, static_cast<size_t>(kServeRate * 0.05 * S),
                            num_requests);
    const AsyncServeStats before = server->stats();
    const OpenLoopResult window = RunOpenLoop(server.get(), requests, schedule,
                                              kServeRate, nullptr, check_reply);
    const AsyncServeStats after = server->stats();
    Account(window, report);
    batches_flushed += after.batches_flushed - before.batches_flushed;
    served += after.served - before.served;
    deadline_flushes += after.deadline_flushes - before.deadline_flushes;
    rejected += after.rejected - before.rejected;
    Append(window, &fixed);
    fixed_schedule.insert(fixed_schedule.end(), schedule.begin(), schedule.end());
    // The search's overloaded steps hold backlogs no steady workload
    // would; peak_rss_mb excludes them.
    if (i == 0) rss_before_search_mb = PeakRssMb();
    goodput.push_back(goodput.empty() ? search(r.search_from, 1.5)
                                      : search(goodput.back(), 1.15));
  }
  phases.push_back({"serve", NowNs()});
  // The windows have equal lengths, so these slices cut each window into
  // kWindowSlices.
  const size_t serve_slices = kServeRounds * kWindowSlices;
  for (double q : {0.5, 0.9, 0.99}) PrintSlices("serve", fixed.latency_ms, q, serve_slices);
  report->E2e("latency_p50_ms",
              SlicedQuantile(fixed.latency_ms, 0.5, serve_slices, kSliceQuartile), "ms");
  // The tails are layer figures only. When the host is contended for a whole
  // phase, every slice's p99 reads 5-13 ms and its p90 1.3-5.7 ms, where an
  // undisturbed slice reads 1.2 and 1.1 ms: the tails measure the host.
  const double serve_p90_ms =
      SlicedQuantile(fixed.latency_ms, 0.9, serve_slices, kSliceQuartile);
  const double serve_p99_ms =
      SlicedQuantile(fixed.latency_ms, 0.99, serve_slices, kSliceQuartile);
  // So is goodput: it follows the speed of one core, which this shared host
  // varies by up to 1.5x from run to run (goodput x setup_s stays within 3%).
  const double goodput_rps = Median(goodput);
  // Setups between the phases run before the peak resident set is reset,
  // so the throwaway worlds do not count toward peak_rss_mb.
  if (!late_setups()) return false;
  ResetPeakRss();
  if (serve_mismatches > 0) {
    report->Violation(std::to_string(serve_mismatches) +
                      " served replies differ from a direct PredictBatch");
  }

  // Serve-layer figures from the fixed-rate windows.
  const double batches = static_cast<double>(batches_flushed);
  const double occupancy = batches > 0 ? static_cast<double>(served) / batches : 0.0;
  const double deadline_frac =
      batches > 0 ? static_cast<double>(deadline_flushes) / batches : 0.0;
  const RequestMeans fixed_means = MeansBelowP99(fixed);

  // ---- adapt: every reply is fed back; the observed latencies alternate
  // between the fitted world and a 4x slower one, episode by episode.
  Result<std::unique_ptr<Pipeline>> loaded =
      Pipeline::Load(w.db.get(), &w.envs, &w.templates, serve_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "trainer load failed: %s\n",
                 loaded.status().ToString().c_str());
    return false;
  }
  std::unique_ptr<Pipeline> trainer = std::move(loaded.value());
  // Generations published by the controller, collected by the on_publish
  // hook until the end of the episode that produced them.
  struct Generation {
    std::shared_ptr<const Pipeline> pipeline;
    int64_t published_ns = 0;
  };
  std::mutex published_mu;
  std::vector<Generation> published;  // guarded by published_mu
  adapt::AdaptationConfig acfg;
  acfg.window.window_capacity = 64;
  acfg.window.label_capacity = kLabelCapacity;
  acfg.drift.min_samples = 16;
  acfg.evaluate_every = 8;
  acfg.min_retrain_samples = 32;
  acfg.retrain.epochs = kRetrainEpochs;
  acfg.artifact_path = options.work_dir + "/adapt.qcfa";
  acfg.on_publish = [&](const std::shared_ptr<const Pipeline>& p, uint64_t) {
    const int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(published_mu);
    published.push_back({p, now});
  };
  TimingFs timing_fs;
  adapt::AdaptationController controller(trainer.get(), &models, acfg,
                                         server.get(), &timing_fs);
  server->set_observation_listener(&controller);

  // Episode 0 is healthy; then the observed latencies alternate between 4x
  // the collected ones and the collected ones, so every episode is a 4x
  // drift. Between episodes the traffic pauses until the controller is
  // idle, so every publish in an episode comes from a cycle that episode's
  // drift started, and the episode's replies are attributed right away.
  const int episodes = kAdaptEpisodes + 1;
  const size_t per_episode =
      static_cast<size_t>(kAdaptRate * 0.4 * S / episodes);
  auto slowdown = [](int episode) { return episode % 2 == 1 ? kDrift : 1.0; };
  Generation current{*gen1, 0};
  OpenLoopResult adapt_res;
  std::vector<double> drifted_q, served_q, recover_s, trip_delay_s, obs_to_trip,
      observe_us;
  std::vector<double> cycle_retrain_s, cycle_save_s, cycle_swap_s;
  size_t unmatched = 0, invalid = 0;
  uint64_t trips_seen = 0;
  Lane* observe_lane = tracer->NewLane("collector");
  for (int ep = 0; ep < episodes; ++ep) {
    const std::vector<uint32_t> part = DrawSchedule(&rng, per_episode, num_requests);
    std::vector<double> replies(per_episode, 0.0);
    std::vector<char> replied(per_episode, 0);
    int64_t start_ns = 0, trip_at_ns = 0;
    size_t trip_count = 0;
    auto observe = [&](size_t seq, const Result<double>& reply) {
      if (!reply.ok()) return;
      replies[seq] = *reply;
      replied[seq] = 1;
      const PlanSample& req = requests[part[seq]];
      const int64_t t0 = NowNs();
      if (seq == 0) start_ns = t0;
      server->ReportObserved(*req.plan, req.env_id, *reply,
                             req.label_ms * slowdown(ep));
      const int64_t t1 = NowNs();
      if (observe_lane != nullptr) observe_lane->Add("adapt.observe", t0, t1, seq + 1);
      observe_us.push_back(Seconds(t0, t1) * 1e6);
      const uint64_t trips = controller.stats().drift_trips;
      if (trips > trips_seen) {
        trips_seen = trips;
        if (trip_at_ns == 0) {
          trip_at_ns = t1;
          trip_count = seq + 1;
        }
      }
    };
    const OpenLoopResult res =
        RunOpenLoop(server.get(), requests, part, kAdaptRate, nullptr, observe);
    controller.WaitForIdle();
    Account(res, report);
    Append(res, &adapt_res);

    // Every reply must bit-match a generation that could have served it:
    // the one serving when the episode began or one published during it.
    std::vector<Generation> gens = {current};
    {
      std::lock_guard<std::mutex> lock(published_mu);
      gens.insert(gens.end(), published.begin(), published.end());
      published.clear();
    }
    std::vector<std::vector<double>> preds;
    for (const Generation& g : gens) {
      Result<std::vector<double>> p = g.pipeline->PredictBatch(requests);
      if (!p.ok()) {
        report->Violation("generation PredictBatch failed");
        return false;
      }
      preds.push_back(std::move(p.value()));
    }
    for (size_t seq = 0; seq < per_episode; ++seq) {
      if (!replied[seq]) continue;  // failed request, counted in `failed`
      const double v = replies[seq];
      if (!std::isfinite(v) || v <= 0.0) {
        ++invalid;
        continue;
      }
      size_t gen = gens.size();
      for (size_t g = gens.size(); g-- > 0;) {
        if (SameBits(v, preds[g][part[seq]])) {
          gen = g;
          break;
        }
      }
      if (gen == gens.size()) {
        ++unmatched;
      } else if (ep > 0 && 2 * seq >= per_episode) {
        served_q.push_back(QError(requests[part[seq]].label_ms * slowdown(ep), v));
      }
    }
    if (ep > 0) {
      // The generation the episode ends with, scored on the episode's own
      // requests against the drifted actuals.
      for (uint32_t i : part) {
        drifted_q.push_back(
            QError(requests[i].label_ms * slowdown(ep), preds.back()[i]));
      }
      if (gens.size() < 2) {
        report->Violation("drift episode " + std::to_string(ep) +
                          " ended without a published retrain");
      } else {
        recover_s.push_back(Seconds(start_ns, gens[1].published_ns));
      }
      if (trip_at_ns != 0) {
        trip_delay_s.push_back(Seconds(start_ns, trip_at_ns));
        obs_to_trip.push_back(static_cast<double>(trip_count));
        // The first cycle after the trip, cut at its file-system calls.
        const int64_t save_begin = timing_fs.First(TimingFs::kSaveBegin, trip_at_ns);
        const int64_t save_end = timing_fs.First(TimingFs::kSaveEnd, save_begin);
        if (gens.size() >= 2 && save_begin != 0 && save_end != 0 &&
            save_end <= gens[1].published_ns) {
          cycle_retrain_s.push_back(Seconds(trip_at_ns, save_begin));
          cycle_save_s.push_back(Seconds(save_begin, save_end));
          cycle_swap_s.push_back(Seconds(save_end, gens[1].published_ns));
        }
      }
    }
    current = gens.back();
  }
  server->set_observation_listener(nullptr);
  controller.Stop();
  phases.push_back({"adapt", NowNs()});
  for (double q : {0.5, 0.9, 0.99}) PrintSlices("adapt", adapt_res.latency_ms, q, kAdaptSlices);
  report->E2e("adapt_latency_p50_ms",
              SlicedQuantile(adapt_res.latency_ms, 0.5, kAdaptSlices, kSliceQuartile),
              "ms");
  // The adapt tails are layer figures only: with a retrain beside serving
  // all four vCPUs are busy, so a contended host raises every slice's p90
  // two- to fivefold, and across ten runs the tail spread far past any bound.
  const double adapt_p90_ms =
      SlicedQuantile(adapt_res.latency_ms, 0.9, kAdaptSlices, kSliceQuartile);
  const double adapt_p99_ms =
      SlicedQuantile(adapt_res.latency_ms, 0.99, kAdaptSlices, kSliceQuartile);
  if (invalid > 0) {
    report->Violation(std::to_string(invalid) + " adapt replies not finite and > 0");
  }
  if (unmatched > 0) {
    report->Violation(std::to_string(unmatched) +
                      " adapt replies match no published generation");
  }
  // recover_s is a layer figure for the same reason as goodput: the retrain
  // is serial, so it follows the speed of one core.
  report->E2e("qerror_drifted", MeanOf(drifted_q), "ratio");

  const double rss_after_search_mb = PeakRssMb();
  report->E2e("peak_rss_mb", std::max(rss_before_search_mb, rss_after_search_mb),
              "MB");
  std::printf("peak rss: %.1f MB through fixed-rate serving, %.1f MB through adapt\n",
              rss_before_search_mb, rss_after_search_mb);
  if (!late_setups()) return false;
  report->E2e("setup_s", Median(setup_s), "s");
  std::printf("setup_s per setup (%d at the start, %d after serving, %d at the end):",
              kSetupRepeats, kLateSetups, kLateSetups);
  for (double x : setup_s) std::printf(" %.3f", x);
  std::printf("\n");

  const adapt::AdaptationStats astats = controller.stats();
  std::printf("adapt: %zu episodes, recover_s per episode:", recover_s.size());
  for (double x : recover_s) std::printf(" %.3f", x);
  std::printf("; cycles started %llu published %llu rejected %llu skipped %llu\n",
              static_cast<unsigned long long>(astats.cycles_started),
              static_cast<unsigned long long>(astats.swaps_published),
              static_cast<unsigned long long>(astats.swaps_rejected +
                                              astats.retrain_failures +
                                              astats.save_failures),
              static_cast<unsigned long long>(astats.cycles_skipped));

  auto print_phases = [&phases, &run_ticks] {
    std::printf("phase seconds:");
    for (size_t i = 1; i < phases.size(); ++i) {
      std::printf(" %s %.1f", phases[i].first,
                  Seconds(phases[i - 1].second, phases[i].second));
    }
    std::printf("; host steal share %.4f\n", StolenShare(run_ticks, ReadCpuTicks()));
  };
  if (!tracer->enabled()) {
    server->Shutdown();
    print_phases();
    return true;
  }

  // ---------------------------------------------------- traced figures ----
  report->Layer("core.snapshot_s", fit_totals.snapshot_s, "s");
  report->Layer("core.snapshot_queries", fit_totals.snapshot_queries, "count");
  report->Layer("core.snapshot_sim_ms", fit_totals.snapshot_sim_ms, "ms");
  report->Layer("core.reduction_s", fit_totals.reduction_s, "s");
  report->Layer("core.reduction_kept_frac", fit_totals.reduction_kept_frac, "ratio");
  const std::map<std::string, SpanTotals> setup_totals = tracer->Totals();
  auto mean_span = [&](const std::string& name) {
    auto it = setup_totals.find(name);
    return it == setup_totals.end() || it->second.count == 0
               ? 0.0
               : it->second.total_s / static_cast<double>(it->second.count);
  };
  report->Layer("workload.collect_s", mean_span("workload.collect"), "s");
  report->Layer("workload.build_db_s", mean_span("workload.build_db"), "s");
  report->Layer("workload.collect_queries",
                static_cast<double>(w.corpus.queries.size()), "count");

  // Tracing overhead: the fixed-rate window again, with a span per Submit.
  Lane* submit_lane = tracer->NewLane("generator");
  schedule = fixed_schedule;
  const OpenLoopResult traced = RunOpenLoop(server.get(), requests, schedule,
                                            kServeRate, submit_lane, check_reply);
  Account(traced, report);
  for (double q : {0.5, 0.99}) {
    report->Layer(q == 0.5 ? "trace.overhead_latency_p50_ms"
                           : "trace.overhead_latency_p99_ms",
                  SlicedQuantile(traced.latency_ms, q, serve_slices, kSliceQuartile) -
                      SlicedQuantile(fixed.latency_ms, q, serve_slices, kSliceQuartile),
                  "ms");
  }
  report->Layer("trace.overhead_submit_us",
                MeansBelowP99(traced).submit_us - fixed_means.submit_us, "us");

  const ServeReplay sr =
      ReplayServe(models, requests, fixed_schedule, occupancy, main_lane);
  report->Layer("featurize.us_per_plan", sr.featurize_us_per_plan, "us");
  report->Layer("featurize.dims_per_node", sr.dims_per_node, "count");
  report->Layer("models.predict_us_per_plan", sr.predict_us_per_plan, "us");
  report->Layer("models.forward_us_per_plan",
                sr.predict_us_per_plan - sr.featurize_us_per_plan, "us");
  report->Layer("models.dedup_unique_frac", sr.dedup_unique_frac, "ratio");
  report->Layer("nn.forward_flop_per_plan", sr.flop_per_plan, "FLOP");
  report->Layer("nn.forward_gflops", sr.forward_gflops, "GFLOP/s");
  report->Layer("serve.occupancy", occupancy, "count");
  report->Layer("serve.deadline_flush_frac", deadline_frac, "ratio");
  report->Layer("serve.submit_us", fixed_means.submit_us, "us");
  report->Layer("serve.service_us_per_batch", sr.service_us_per_batch, "us");
  // Queue wait predicted from the flush mix: a batch's head waits the
  // deadline (deadline flush) or until max_batch requests arrived (full
  // flush); later requests of the batch arrived (occupancy-1)/2 periods
  // after the head on average.
  const double period_ms = 1e3 / kServeRate;
  const double head_wait_ms =
      deadline_frac * static_cast<double>(kMaxDelayMicros) * 1e-3 +
      (1.0 - deadline_frac) * static_cast<double>(kMaxBatch - 1) * period_ms;
  const double queue_wait_ms =
      std::max(0.0, head_wait_ms - (occupancy - 1.0) / 2.0 * period_ms);
  report->Layer("serve.queue_wait_ms", queue_wait_ms, "ms");
  report->Layer("serve.gen_late_ms", fixed_means.gen_late_ms, "ms");
  report->Layer("serve.gen_late_p99_ms", Quantile(fixed.gen_late_ms, 0.99), "ms");
  report->Layer("serve.in_server_ms", fixed_means.in_server_ms, "ms");
  report->Layer("serve.sent", static_cast<double>(fixed.sent), "count");
  report->Layer("serve.ok", static_cast<double>(fixed.ok), "count");
  report->Layer("serve.failed", static_cast<double>(fixed.failed), "count");
  report->Layer("serve.rejected",
                static_cast<double>(rejected),
                "count");
  // Two steps. The measured parts (generator lateness, Submit, and Submit
  // returned -> future ready) against the latency, over the same requests;
  // then the in-server time against the modelled queue wait plus the
  // replayed batch service. Whatever neither explains sits in the second.
  const double measured_ms = fixed_means.gen_late_ms +
                             fixed_means.submit_us * 1e-3 + fixed_means.in_server_ms;
  const double measured_residual =
      (measured_ms - fixed_means.latency_ms) / fixed_means.latency_ms;
  const double modelled_ms = queue_wait_ms + sr.service_us_per_batch * 1e-3;
  const double in_server_residual =
      (modelled_ms - fixed_means.in_server_ms) / fixed_means.in_server_ms;
  report->Layer("reconcile.serve_residual_frac", measured_residual, "ratio");
  report->Layer("reconcile.serve_in_server_residual_frac", in_server_residual,
                "ratio");
  std::printf("reconcile serve (means over requests at or below the latency p99): "
              "gen_late %.4f + submit %.4f + in_server %.4f = %.4f ms vs latency "
              "%.4f ms (residual %+.1f%%); queue_wait %.4f + service %.4f = %.4f ms "
              "vs in_server %.4f ms (residual %+.1f%%)\n",
              fixed_means.gen_late_ms, fixed_means.submit_us * 1e-3,
              fixed_means.in_server_ms, measured_ms, fixed_means.latency_ms,
              100.0 * measured_residual, queue_wait_ms,
              sr.service_us_per_batch * 1e-3, modelled_ms, fixed_means.in_server_ms,
              100.0 * in_server_residual);

  // Adapt: one cycle replayed through its public calls on the trainer.
  double labeled_s = 0, retrain_s = 0, save_s = 0, load_s = 0, swap_s = 0;
  const std::string replay_path = options.work_dir + "/adapt-replay.qcfa";
  {
    ScopedSpan replay_span(main_lane, "adapt.replay");
    adapt::LabeledCorpus corpus;
    {
      Stage stage(main_lane, "adapt.labeled_samples", &labeled_s);
      corpus = controller.sink()->LabeledSamples();
    }
    Status s;
    {
      Stage stage(main_lane, "adapt.retrain", &retrain_s);
      s = trainer->Retrain(corpus.samples, acfg.retrain, nullptr);
    }
    if (s.ok()) {
      Stage stage(main_lane, "adapt.save", &save_s);
      s = trainer->Save(replay_path);
    }
    if (s.ok()) {
      Stage stage(main_lane, "adapt.load", &load_s);
      s = Pipeline::Load(w.db.get(), &w.envs, &w.templates, replay_path).status();
    }
    if (s.ok()) {
      SwapOptions swap;
      const size_t probe = std::min(acfg.probe_size, corpus.samples.size());
      swap.probe.assign(corpus.samples.begin(), corpus.samples.begin() + probe);
      Result<std::vector<double>> exp = trainer->PredictBatch(swap.probe);
      if (exp.ok()) swap.expected = std::move(exp.value());
      SwappableModel replay_models;
      Stage stage(main_lane, "adapt.swap", &swap_s);
      s = LoadAndSwap(w.db.get(), &w.envs, &w.templates, replay_path, swap,
                      &replay_models)
              .status();
    }
    if (!s.ok()) report->Violation("adapt replay: " + s.ToString());
  }
  Result<std::string> artifact = Fs::Default()->ReadFile(replay_path);
  report->Layer("core.artifact_bytes",
                artifact.ok() ? static_cast<double>(artifact->size()) : 0.0, "bytes");
  report->Layer("serve.goodput_rps", goodput_rps, "req/s");
  report->Layer("serve.latency_p90_ms", serve_p90_ms, "ms");
  report->Layer("serve.latency_p99_ms", serve_p99_ms, "ms");
  report->Layer("host.stolen_frac", StolenShare(run_ticks, ReadCpuTicks()), "ratio");
  report->Layer("adapt.latency_p90_ms", adapt_p90_ms, "ms");
  report->Layer("adapt.latency_p99_ms", adapt_p99_ms, "ms");
  report->Layer("adapt.qerror_served", MeanOf(served_q), "ratio");
  report->Layer("adapt.observe_us", TrimmedMean(observe_us), "us");
  report->Layer("adapt.obs_to_trip", Median(obs_to_trip), "count");
  report->Layer("adapt.trip_delay_s", Median(trip_delay_s), "s");
  report->Layer("adapt.labeled_samples_s", labeled_s, "s");
  report->Layer("adapt.retrain_s", retrain_s, "s");
  report->Layer("adapt.save_s", save_s, "s");
  report->Layer("adapt.load_s", load_s, "s");
  report->Layer("adapt.swap_s", swap_s, "s");
  report->Layer("adapt.cycles_published", static_cast<double>(astats.swaps_published),
                "count");
  report->Layer("adapt.cycles_rejected",
                static_cast<double>(astats.swaps_rejected + astats.retrain_failures +
                                    astats.save_failures),
                "count");
  report->Layer("adapt.cycles_skipped", static_cast<double>(astats.cycles_skipped),
                "count");
  report->Layer("adapt.sent", static_cast<double>(adapt_res.sent), "count");
  report->Layer("adapt.ok", static_cast<double>(adapt_res.ok), "count");
  report->Layer("adapt.failed",
                static_cast<double>(adapt_res.failed + adapt_res.rejected), "count");
  // recover_s is cut at the library's own seams: the trip (seen after
  // ReportObserved), Save opening its file, the atomic rename, and the
  // on_publish hook. The replayed cycle above times the same calls alone,
  // without serving beside them.
  const double live_s = Median(trip_delay_s) + Median(cycle_retrain_s) +
                        Median(cycle_save_s) + Median(cycle_swap_s);
  const double replay_s = labeled_s + retrain_s + save_s + swap_s;
  const double recover = Median(recover_s);
  report->Layer("adapt.recover_s", recover, "s");
  report->Layer("adapt.cycle_retrain_s", Median(cycle_retrain_s), "s");
  report->Layer("adapt.cycle_save_s", Median(cycle_save_s), "s");
  report->Layer("adapt.cycle_swap_s", Median(cycle_swap_s), "s");
  report->Layer("reconcile.adapt_residual_frac",
                recover > 0 ? (live_s - recover) / recover : 0.0, "ratio");
  report->Layer("reconcile.adapt_replay_frac",
                recover > 0 ? (Median(trip_delay_s) + replay_s - recover) / recover
                            : 0.0,
                "ratio");
  std::printf("reconcile adapt: trip delay %.4f + live retrain %.4f + save %.4f + "
              "swap %.4f = %.4f s vs recover_s %.4f s (residual %+.1f%%); replayed "
              "cycle: snapshot %.4f + retrain %.4f + save %.4f + load&swap %.4f = "
              "%.4f s\n",
              Median(trip_delay_s), Median(cycle_retrain_s), Median(cycle_save_s),
              Median(cycle_swap_s), live_s, recover,
              recover > 0 ? 100.0 * (live_s - recover) / recover : 0.0, labeled_s,
              retrain_s, save_s, swap_s, replay_s);
  report->Layer("trace.spans", static_cast<double>(tracer->num_spans()), "count");
  std::printf("%-28s %8s %12s %12s\n", "span", "count", "total_s", "self_s");
  for (const auto& [name, t] : tracer->Totals()) {
    std::printf("%-28s %8llu %12.6f %12.6f\n", name.c_str(),
                static_cast<unsigned long long>(t.count), t.total_s, t.self_s);
  }
  server->Shutdown();
  phases.push_back({"traced", NowNs()});
  print_phases();
  return true;
}

}  // namespace perfbench
