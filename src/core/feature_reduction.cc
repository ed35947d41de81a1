#include "core/feature_reduction.h"

#include <cmath>
#include <functional>

#include "nn/mlp.h"
#include "util/env_config.h"
#include "util/rng.h"
#include "util/stats.h"

namespace qcfe {

const char* ReductionAlgorithmName(ReductionAlgorithm algo) {
  switch (algo) {
    case ReductionAlgorithm::kGreedy:
      return "Greedy";
    case ReductionAlgorithm::kGradient:
      return "GD";
    case ReductionAlgorithm::kDiffProp:
      return "FR";
  }
  return "?";
}

double ReductionResult::ReductionRatio() const {
  size_t total = 0, dropped = 0;
  for (const auto& [op, r] : per_op) {
    if (r.original_dim == 0) continue;
    total += r.original_dim;
    dropped += r.dropped;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(dropped) / static_cast<double>(total);
}

std::map<OpType, std::vector<size_t>> ReductionResult::KeptMap(
    bool uniform) const {
  std::map<OpType, std::vector<size_t>> out;
  if (!uniform) {
    for (const auto& [op, r] : per_op) out[op] = r.kept;
    return out;
  }
  // Union of kept dims across types (single shared operator module).
  std::vector<bool> keep_any;
  for (const auto& [op, r] : per_op) {
    if (keep_any.size() < r.original_dim) keep_any.resize(r.original_dim);
    for (size_t k : r.kept) keep_any[k] = true;
  }
  std::vector<size_t> kept;
  for (size_t i = 0; i < keep_any.size(); ++i) {
    if (keep_any[i]) kept.push_back(i);
  }
  for (OpType op : AllOpTypes()) out[op] = kept;
  return out;
}

namespace {

/// Labeled operator set of one operator type.
struct OpDataset {
  Matrix x;                 // rows x dim, raw featurizer output
  std::vector<double> y_ms;  // subtree latencies (ms)
};

/// Gathers D per operator type from the plan samples. Encoding runs across
/// the pool (one task per plan, concatenated in sample order) and each
/// operator type subsamples from its own Split stream, so the gathered
/// datasets are identical at any thread count.
std::array<OpDataset, kNumOpTypes> GatherOperatorData(
    const OperatorFeaturizer& featurizer,
    const std::vector<PlanSample>& samples, size_t max_rows_per_op,
    const Rng& rng, ThreadPool* pool) {
  struct SampleRows {
    std::array<std::vector<std::vector<double>>, kNumOpTypes> rows;
    std::array<std::vector<double>, kNumOpTypes> labels;
  };
  std::vector<SampleRows> per_sample =
      ParallelMap<SampleRows>(pool, samples.size(), [&](size_t si) {
        const PlanSample& s = samples[si];
        SampleRows out;
        std::function<void(const PlanNode&, size_t)> walk =
            [&](const PlanNode& n, size_t depth) {
              size_t oi = static_cast<size_t>(n.op);
              out.rows[oi].push_back(featurizer.Encode(n, depth, s.env_id));
              out.labels[oi].push_back(SubtreeLatencyMs(n));
              for (const auto& c : n.children) walk(*c, depth + 1);
            };
        walk(*s.plan, 0);
        return out;
      });
  std::array<std::vector<std::vector<double>>, kNumOpTypes> rows;
  std::array<std::vector<double>, kNumOpTypes> labels;
  for (auto& sample : per_sample) {
    for (size_t oi = 0; oi < kNumOpTypes; ++oi) {
      for (auto& r : sample.rows[oi]) rows[oi].push_back(std::move(r));
      for (double l : sample.labels[oi]) labels[oi].push_back(l);
    }
  }
  std::array<OpDataset, kNumOpTypes> out;
  for (size_t oi = 0; oi < kNumOpTypes; ++oi) {
    size_t n = rows[oi].size();
    if (n == 0) continue;
    std::vector<size_t> pick;
    if (n > max_rows_per_op) {
      Rng op_rng = rng.Split(oi);
      pick = op_rng.SampleIndices(n, max_rows_per_op);
    } else {
      pick.resize(n);
      for (size_t i = 0; i < n; ++i) pick[i] = i;
    }
    out[oi].x = Matrix(pick.size(), rows[oi][0].size());
    out[oi].y_ms.resize(pick.size());
    for (size_t i = 0; i < pick.size(); ++i) {
      out[oi].x.SetRow(i, rows[oi][pick[i]]);
      out[oi].y_ms[i] = labels[oi][pick[i]];
    }
  }
  return out;
}

/// Difference-propagation importance (Equation 1): per dim k the expectation
/// over (x_i in D, x_j in R) of |ΔM / Δx_k|, with zero contribution when the
/// dim does not differ. Division by |D||R| (not by the count of non-zero
/// pairs) means never-varying dims score exactly 0.
std::vector<double> DiffPropScores(const Mlp& view, const OpDataset& data,
                                   size_t num_references, Rng* rng,
                                   ThreadPool* pool) {
  size_t dim = data.x.cols();
  size_t n = data.x.rows();
  std::vector<double> scores(dim, 0.0);
  size_t n_refs = std::min(num_references, n);
  std::vector<size_t> ref_idx = rng->SampleIndices(n, n_refs);

  // Scratch-based forward: the view's GEMMs run through the blocked
  // kernels without per-layer allocations.
  Mlp::Scratch y_scratch;
  const Matrix& y_all = view.Predict(data.x, &y_scratch);  // n x 1
  double total_pairs = static_cast<double>(n) * static_cast<double>(n_refs);
  // One partial score vector per reference, summed in reference order: a
  // fixed-shape reduction whose result is independent of how references are
  // assigned to workers. Never-varying dims stay exactly zero (all partials
  // zero), preserving the paper's "score > 0" keep rule.
  std::vector<std::vector<double>> partial =
      ParallelMap<std::vector<double>>(pool, n_refs, [&](size_t jj) {
        size_t j = ref_idx[jj];
        std::vector<double> p(dim, 0.0);
        const double* xj = data.x.RowPtr(j);
        double yj = y_all.At(j, 0);
        for (size_t i = 0; i < n; ++i) {
          const double* xi = data.x.RowPtr(i);
          double dy = y_all.At(i, 0) - yj;
          for (size_t k = 0; k < dim; ++k) {
            double dx = xi[k] - xj[k];
            if (std::fabs(dx) < 1e-12) continue;
            p[k] += std::fabs(dy / dx);
          }
        }
        return p;
      });
  for (const auto& p : partial) {
    for (size_t k = 0; k < dim; ++k) scores[k] += p[k];
  }
  for (double& s : scores) s /= total_pairs;
  return scores;
}

/// Gradient importance: E |dM/dx_k| via the view's tape-based input
/// gradients. Rows fan out across the pool in fixed-width chunks (the
/// partition depends only on the row count, never on the worker count) and
/// the per-chunk partial sums combine in chunk order, so scores are
/// bit-identical at any thread count. InputGradient runs on a private tape
/// and writes nothing else, so the view's parameter grads stay untouched.
std::vector<double> GradientScores(const Mlp& view, const OpDataset& data,
                                   ThreadPool* pool) {
  constexpr size_t kRowChunk = 64;
  size_t n = data.x.rows();
  size_t dim = data.x.cols();
  size_t num_chunks = (n + kRowChunk - 1) / kRowChunk;
  std::vector<std::vector<double>> partial =
      ParallelMap<std::vector<double>>(pool, num_chunks, [&](size_t c) {
        size_t cs = c * kRowChunk;
        size_t ce = std::min(cs + kRowChunk, n);
        Matrix rows(ce - cs, dim);
        for (size_t r = cs; r < ce; ++r) {
          for (size_t k = 0; k < dim; ++k) rows.At(r - cs, k) = data.x.At(r, k);
        }
        // Tape-backed probe: the forward/backward sweep reuses one scratch
        // arena instead of allocating per layer, and backprop never writes
        // the view's parameter grads.
        Mlp::Tape tape;
        Matrix grads = view.InputGradient(rows, &tape);
        std::vector<double> p(dim, 0.0);
        for (size_t r = 0; r < grads.rows(); ++r) {
          for (size_t k = 0; k < dim; ++k) p[k] += std::fabs(grads.At(r, k));
        }
        return p;
      });
  std::vector<double> scores(dim, 0.0);
  for (const auto& p : partial) {
    for (size_t k = 0; k < dim; ++k) scores[k] += p[k];
  }
  for (double& s : scores) s /= static_cast<double>(n);
  return scores;
}

/// Mean q-error of the view on (x, y_ms) with columns in `masked` — plus
/// the optional `extra` candidate column — replaced by their column means.
/// `masked` is read-only, so concurrent candidate evaluations can share it.
double MaskedQError(Mlp* view, const LogTargetScaler& scaler,
                    const OpDataset& data, const std::vector<double>& col_mean,
                    const std::vector<bool>& masked, ptrdiff_t extra = -1) {
  Matrix x = data.x;
  for (size_t c = 0; c < x.cols(); ++c) {
    if (!masked[c] && static_cast<ptrdiff_t>(c) != extra) continue;
    for (size_t r = 0; r < x.rows(); ++r) x.At(r, c) = col_mean[c];
  }
  Mlp::Scratch scratch;
  const Matrix& y = view->Predict(x, &scratch);
  std::vector<double> qe(x.rows());
  for (size_t r = 0; r < x.rows(); ++r) {
    double pred_ms = scaler.InverseTransformOne(y.At(r, 0));
    qe[r] = QError(data.y_ms[r], pred_ms);
  }
  return Mean(qe);
}

/// Paper Algorithm 2: greedy mean-mask dropping. Each round's candidate
/// evaluations are independent (masked is shared read-only; the candidate
/// column is passed separately), so they fan out across the pool; the
/// argmin scans candidate order, reproducing the serial first-minimum
/// tie-break exactly.
std::vector<size_t> GreedyKept(Mlp* view, const LogTargetScaler& scaler,
                               const OpDataset& full, size_t max_rows,
                               Rng* rng, ThreadPool* pool) {
  OpDataset data;
  if (full.x.rows() > max_rows) {
    std::vector<size_t> pick = rng->SampleIndices(full.x.rows(), max_rows);
    data.x = full.x.SelectRows(pick);
    data.y_ms.reserve(pick.size());
    for (size_t i : pick) data.y_ms.push_back(full.y_ms[i]);
  } else {
    data.x = full.x;
    data.y_ms = full.y_ms;
  }
  size_t dim = data.x.cols();
  std::vector<double> col_mean(dim, 0.0);
  for (size_t c = 0; c < dim; ++c) {
    for (size_t r = 0; r < data.x.rows(); ++r) col_mean[c] += data.x.At(r, c);
    col_mean[c] /= static_cast<double>(data.x.rows());
  }

  std::vector<bool> masked(dim, false);
  double current = MaskedQError(view, scaler, data, col_mean, masked);
  while (true) {
    std::vector<double> qs = ParallelMap<double>(pool, dim, [&](size_t f) {
      if (masked[f]) return HUGE_VAL;
      return MaskedQError(view, scaler, data, col_mean, masked,
                          static_cast<ptrdiff_t>(f));
    });
    ptrdiff_t best = -1;
    double best_q = current;
    for (size_t f = 0; f < dim; ++f) {
      if (masked[f]) continue;
      if (qs[f] < best_q) {
        best_q = qs[f];
        best = static_cast<ptrdiff_t>(f);
      }
    }
    if (best < 0) break;
    masked[static_cast<size_t>(best)] = true;
    current = best_q;
  }
  std::vector<size_t> kept;
  for (size_t f = 0; f < dim; ++f) {
    if (!masked[f]) kept.push_back(f);
  }
  return kept;
}

}  // namespace

Result<ReductionResult> ReduceFeatures(const CostModel& model,
                                       const std::vector<PlanSample>& samples,
                                       const ReductionConfig& config,
                                       ThreadPool* pool) {
  const OperatorFeaturizer* featurizer = model.featurizer();
  const LogTargetScaler* scaler = model.label_scaler();
  if (featurizer == nullptr || scaler == nullptr) {
    return Status::FailedPrecondition("model exposes no featurizer/scaler");
  }
  if (samples.empty()) {
    return Status::InvalidArgument("no samples for reduction");
  }
  WallTimer timer;
  Rng rng(config.seed);
  auto data = GatherOperatorData(*featurizer, samples,
                                 config.max_rows_per_op, rng, pool);

  // Context for operator views: a modest subsample of plans.
  std::vector<PlanSample> context(
      samples.begin(),
      samples.begin() + std::min<size_t>(samples.size(), 64));

  ReductionResult result;
  for (OpType op : AllOpTypes()) {
    size_t oi = static_cast<size_t>(op);
    OpReductionResult r;
    r.original_dim = featurizer->dim(op);
    if (data[oi].x.rows() == 0) {
      // Never observed: keep everything (no evidence to drop).
      r.kept.resize(r.original_dim);
      for (size_t i = 0; i < r.original_dim; ++i) r.kept[i] = i;
      result.per_op[op] = std::move(r);
      continue;
    }
    Result<Mlp> view = model.OperatorView(op, context);
    if (!view.ok()) return view.status();

    // Per-operator Split stream (offset past the GatherOperatorData
    // streams): each type's sampling is independent of which other types
    // exist or run, the precondition for parallelizing across types later.
    Rng op_rng = rng.Split(kNumOpTypes + oi);
    if (config.algorithm == ReductionAlgorithm::kGreedy) {
      r.kept = GreedyKept(&view.value(), *scaler, data[oi],
                          config.greedy_max_rows, &op_rng, pool);
    } else {
      bool is_gd = config.algorithm == ReductionAlgorithm::kGradient;
      r.scores = is_gd ? GradientScores(view.value(), data[oi], pool)
                       : DiffPropScores(view.value(), data[oi],
                                        config.num_references, &op_rng, pool);
      double threshold = config.eps_abs;
      if (is_gd) {
        // Gradient scores are never exactly zero (dead dims still flow
        // through their random initial weights) and are not scale-free, so
        // GD must draw an arbitrary line — here a fraction of the median
        // score. This keeps some dead dims and drops some informative ones:
        // the paper's "wrong importance scores" failure mode, reproduced
        // mechanically rather than hard-coded.
        threshold = std::max(config.eps_abs,
                             config.gd_rel_threshold *
                                 Quantile(r.scores, 0.5));
      }
      for (size_t k = 0; k < r.scores.size(); ++k) {
        if (r.scores[k] > threshold) r.kept.push_back(k);
      }
      // Degenerate guard: never drop everything.
      if (r.kept.empty()) {
        for (size_t i = 0; i < r.original_dim; ++i) r.kept.push_back(i);
      }
    }
    r.dropped = r.original_dim - r.kept.size();
    result.per_op[op] = std::move(r);
  }
  result.runtime_seconds = timer.Seconds();
  return result;
}

Result<RecallResult> RecallFeatures(const OperatorFeaturizer& full_featurizer,
                                    const ReductionResult& previous,
                                    const std::vector<PlanSample>& new_samples,
                                    double variation_eps) {
  if (new_samples.empty()) {
    return Status::InvalidArgument("no samples for recall");
  }
  Rng rng(31);
  auto data = GatherOperatorData(full_featurizer, new_samples,
                                 /*max_rows_per_op=*/2000, rng,
                                 /*pool=*/nullptr);
  RecallResult result;
  for (const auto& [op, prev] : previous.per_op) {
    size_t oi = static_cast<size_t>(op);
    std::vector<bool> kept_before(prev.original_dim, false);
    for (size_t k : prev.kept) kept_before[k] = true;

    std::vector<size_t> recalled;
    const Matrix& x = data[oi].x;
    if (x.rows() > 0) {
      for (size_t k = 0; k < prev.original_dim && k < x.cols(); ++k) {
        if (kept_before[k]) continue;
        // Inherent value: the dim varies in the new workload.
        double mean = 0.0, var = 0.0;
        for (size_t r = 0; r < x.rows(); ++r) mean += x.At(r, k);
        mean /= static_cast<double>(x.rows());
        for (size_t r = 0; r < x.rows(); ++r) {
          double d = x.At(r, k) - mean;
          var += d * d;
        }
        if (var / static_cast<double>(x.rows()) > variation_eps) {
          recalled.push_back(k);
        }
      }
    }
    std::vector<size_t> merged = prev.kept;
    merged.insert(merged.end(), recalled.begin(), recalled.end());
    std::sort(merged.begin(), merged.end());
    result.total_recalled += recalled.size();
    result.recalled[op] = std::move(recalled);
    result.new_kept[op] = std::move(merged);
  }
  return result;
}

}  // namespace qcfe
