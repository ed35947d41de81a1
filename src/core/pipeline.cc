#include "core/pipeline.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <utility>

#include "core/artifact.h"
#include "nn/kernels.h"
#include "util/fs.h"
#include "util/serialize.h"
#include "util/stats.h"
#include "util/string_util.h"

namespace qcfe {

namespace {

/// Per-environment mean q-error of `model` over `samples`, through the
/// batched serving path. This is the fit-time reference the online
/// DriftDetector (src/adapt) compares live q-error against. Deterministic:
/// accumulation follows sample order and std::map iterates env ids
/// ascending. Baselines are advisory, so a failed batch predict yields an
/// empty map instead of failing the fit.
std::map<int, double> ComputeEnvBaselines(const CostModel& model,
                                          const std::vector<PlanSample>& samples,
                                          ThreadPool* pool) {
  Result<std::vector<double>> preds = model.PredictBatchMs(samples, pool);
  if (!preds.ok()) return {};
  std::map<int, std::pair<double, size_t>> acc;
  for (size_t i = 0; i < samples.size(); ++i) {
    std::pair<double, size_t>& slot = acc[samples[i].env_id];
    slot.first += QError(samples[i].label_ms, (*preds)[i]);
    slot.second += 1;
  }
  std::map<int, double> out;
  for (const auto& [env_id, sum_count] : acc) {
    out[env_id] = sum_count.first / static_cast<double>(sum_count.second);
  }
  return out;
}

}  // namespace

Result<std::unique_ptr<Pipeline>> Pipeline::Fit(
    Database* db, const std::vector<Environment>* envs,
    const std::vector<QueryTemplate>* templates, const PipelineConfig& config,
    const std::vector<PlanSample>& train) {
  if (db == nullptr || envs == nullptr || templates == nullptr) {
    return Status::InvalidArgument(
        "Pipeline::Fit requires a database, environments and templates");
  }
  EstimatorRegistry& registry = EstimatorRegistry::Global();
  Result<EstimatorInfo> info = registry.Info(config.estimator);
  if (!info.ok()) return info.status();

  auto pipeline = std::unique_ptr<Pipeline>(new Pipeline());
  pipeline->db_ = db;
  pipeline->envs_ = envs;
  pipeline->templates_ = templates;
  pipeline->config_ = config;
  pipeline->info_ = *info;
  // Analytical estimators have no learned features to snapshot or reduce.
  pipeline->config_.use_snapshot = config.use_snapshot && info->learned;
  pipeline->config_.use_reduction = config.use_reduction && info->learned;

  // One worker pool for the whole pipeline lifetime: collection, reduction,
  // training eval, then batched serving all share it.
  int requested = config.parallelism.num_threads.value_or(1);
  if (ResolveNumThreads(requested) > 1) {
    pipeline->pool_ = std::make_unique<ThreadPool>(requested);
  }
  ThreadPool* pool = pipeline->pool_.get();

  pipeline->base_featurizer_ = std::make_unique<BaseFeaturizer>(db->catalog());
  const OperatorFeaturizer* active = pipeline->base_featurizer_.get();

  if (pipeline->config_.use_snapshot) {
    pipeline->snapshot_store_ = std::make_unique<SnapshotStore>();
    SnapshotBuilder snapshots(db, templates);
    QCFE_RETURN_IF_ERROR(snapshots.ComputeSnapshots(
        *envs, config.snapshot_from_templates, config.snapshot_scale,
        config.seed, pipeline->snapshot_store_.get(),
        &pipeline->snapshot_collection_ms_, &pipeline->snapshot_num_queries_,
        &pipeline->snapshot_num_templates_, config.snapshot_granularity,
        pool));
    pipeline->snapshot_featurizer_ = std::make_unique<SnapshotFeaturizer>(
        active, pipeline->snapshot_store_.get(),
        config.snapshot_granularity == SnapshotGranularity::kOperatorTable);
    active = pipeline->snapshot_featurizer_.get();
  }

  if (pipeline->config_.use_reduction) {
    // Provisional model: enough training for meaningful importance scores.
    Result<std::unique_ptr<CostModel>> provisional = registry.Create(
        config.estimator, {db->catalog(), active, config.seed + 1});
    if (!provisional.ok()) return provisional.status();
    (*provisional)->set_thread_pool(pool);
    TrainConfig pre_cfg = config.train;
    pre_cfg.epochs = config.pre_reduction_epochs;
    pre_cfg.eval_every = 0;
    QCFE_RETURN_IF_ERROR(
        (*provisional)->Train(train, pre_cfg, &pipeline->pre_train_stats_));

    Result<ReductionResult> reduction =
        ReduceFeatures(**provisional, train, config.reduction, pool);
    if (!reduction.ok()) return reduction.status();
    pipeline->reduction_ = std::move(reduction.value());

    pipeline->masked_featurizer_ = std::make_unique<MaskedFeaturizer>(
        active, pipeline->reduction_.KeptMap(info->uniform_feature_width));
    active = pipeline->masked_featurizer_.get();
  }

  Result<std::unique_ptr<CostModel>> model = registry.Create(
      config.estimator, {db->catalog(), active, config.seed + 2});
  if (!model.ok()) return model.status();
  pipeline->model_ = std::move(model.value());
  pipeline->model_->set_thread_pool(pool);
  QCFE_RETURN_IF_ERROR(
      pipeline->model_->Train(train, config.train, &pipeline->train_stats_));
  pipeline->env_baseline_qerror_ =
      ComputeEnvBaselines(*pipeline->model_, train, pool);
  return pipeline;
}

Result<double> Pipeline::PredictMs(const PlanNode& plan, int env_id) const {
  return model_->PredictMs(plan, env_id);
}

Result<std::vector<double>> Pipeline::PredictBatch(
    const std::vector<PlanSample>& samples) const {
  return model_->PredictBatchMs(samples);
}

std::unique_ptr<AsyncServer> Pipeline::ServeAsync(Clock* clock) const {
  return std::make_unique<AsyncServer>(model_.get(), config_.async_serve,
                                       clock, pool_.get());
}

std::unique_ptr<AsyncServer> Pipeline::ServeAsync(const SwappableModel* models,
                                                  const AsyncServeConfig& config,
                                                  Clock* clock) {
  return std::make_unique<AsyncServer>(models, config, clock);
}

std::string Pipeline::name() const {
  bool qcfe = config_.use_snapshot || config_.use_reduction;
  return qcfe ? "QCFE(" + info_.qcfe_label + ")" : info_.display_name;
}

const OperatorFeaturizer* Pipeline::active_featurizer() const {
  if (masked_featurizer_ != nullptr) return masked_featurizer_.get();
  if (snapshot_featurizer_ != nullptr) return snapshot_featurizer_.get();
  return base_featurizer_.get();
}

std::string Pipeline::Explain() const {
  std::ostringstream os;
  os << "pipeline " << name() << " (estimator \"" << config_.estimator
     << "\")\n";
  os << "  chain: base featurizer";
  if (snapshot_featurizer_ != nullptr) {
    os << " -> snapshot("
       << (config_.snapshot_from_templates ? "FST" : "FSO") << ", scale "
       << config_.snapshot_scale << ", "
       << (config_.snapshot_granularity == SnapshotGranularity::kOperatorTable
               ? "per-operator-table"
               : "per-operator")
       << ")";
  }
  if (masked_featurizer_ != nullptr) {
    os << " -> reduction mask";
  }
  os << "\n";
  if (snapshot_store_ != nullptr) {
    os << "  snapshot: " << snapshot_store_->size() << " environments from "
       << snapshot_num_queries_ << " queries (" << snapshot_num_templates_
       << " templates, " << FormatDouble(snapshot_collection_ms_, 1)
       << " simulated collection ms)\n";
  }
  if (config_.use_reduction) {
    os << "  reduction: removed "
       << FormatDouble(100.0 * reduction_.ReductionRatio(), 1)
       << "% of feature dims\n";
  }
  // The loss curve counts every epoch the current weights went through
  // (Fit plus retrains); the config only records the Fit-time budget.
  const size_t trained_epochs = train_stats_.loss_curve.empty()
                                    ? static_cast<size_t>(config_.train.epochs)
                                    : train_stats_.loss_curve.size();
  os << "  training: " << trained_epochs << " epochs in "
     << FormatDouble(train_stats_.train_seconds, 2) << " s";
  if (!train_stats_.loss_curve.empty()) {
    os << ", final loss " << FormatDouble(train_stats_.loss_curve.back(), 5);
  }
  os << "\n";
  os << "  threads: "
     << (pool_ == nullptr ? size_t{1} : pool_->num_workers())
     << " (deterministic: parallel and serial fits are bit-identical)\n";
  return os.str();
}

Status Pipeline::ExtendSnapshots(const std::vector<Environment>& envs,
                                 bool from_templates, int scale, uint64_t seed,
                                 double* collection_ms) {
  if (snapshot_store_ == nullptr) {
    return Status::FailedPrecondition(
        "pipeline was fitted without a snapshot store");
  }
  // Detect snapshot-cache collisions before computing anything: an env id
  // that is already cached (or repeated within this request) used to be
  // silently overwritten by whichever collection ran last. The refit below
  // replaces each colliding entry with a snapshot that depends only on this
  // call's (envs, scale, seed) — never on what was cached — and the
  // returned status names the colliding ids. The stale entries are left in
  // place until the collection succeeds, so a failed re-collection cannot
  // punch holes in a store that was serving predictions.
  std::vector<int> collided;
  std::set<int> requested;
  for (const Environment& env : envs) {
    bool duplicate_in_request = !requested.insert(env.id).second;
    if ((snapshot_store_->Contains(env.id) || duplicate_in_request) &&
        std::find(collided.begin(), collided.end(), env.id) ==
            collided.end()) {
      collided.push_back(env.id);
    }
  }
  SnapshotBuilder snapshots(db_, templates_);
  double extra_ms = 0.0;
  size_t extra_queries = 0;
  QCFE_RETURN_IF_ERROR(snapshots.ComputeSnapshots(
      envs, from_templates, scale, seed, snapshot_store_.get(), &extra_ms,
      &extra_queries, nullptr, config_.snapshot_granularity, pool_.get()));
  // Keep the pipeline's cost accounting (Explain, Table V style stats)
  // covering the extended store, not just the original Fit.
  snapshot_collection_ms_ += extra_ms;
  snapshot_num_queries_ += extra_queries;
  // Assign, never accumulate: the out-param reports this call's cost only,
  // like every other out-param in the API (the lifetime total is the
  // member above). Accumulating additionally produced garbage when callers
  // passed an uninitialized double.
  if (collection_ms != nullptr) *collection_ms = extra_ms;
  if (!collided.empty()) {
    std::ostringstream os;
    os << "snapshot cache collision: environment id(s)";
    for (int id : collided) os << " " << id;
    os << " invalidated and refit";
    return Status::AlreadyExists(os.str());
  }
  return Status::OK();
}

Status Pipeline::Retrain(const std::vector<PlanSample>& train,
                         const TrainConfig& config, TrainStats* stats) {
  // A retrain that fails part-way (a non-finite batch, say) must not leave
  // the model half-trained: on failure the state saved here comes back.
  ByteWriter entry_state;
  QCFE_RETURN_IF_ERROR(model_->SaveState(&entry_state));
  TrainStats retrain_stats;
  Status trained = model_->Train(train, config, &retrain_stats);
  if (!trained.ok()) {
    ByteReader restore(entry_state.bytes());
    QCFE_CHECK_OK(model_->LoadState(&restore));
    return trained;
  }
  // Merge with history rather than leaving train_stats_ stale: the merged
  // stats describe the full training the current weights went through (Fit
  // plus every successful retrain), so a post-retrain Explain() or Save()
  // reflects the model that is actually serving. Epochs in the retrain's
  // eval curve are offset past the existing loss curve so the combined
  // curve stays monotone in epoch.
  const int epoch_offset = static_cast<int>(train_stats_.loss_curve.size());
  train_stats_.train_seconds += retrain_stats.train_seconds;
  train_stats_.loss_curve.insert(train_stats_.loss_curve.end(),
                                 retrain_stats.loss_curve.begin(),
                                 retrain_stats.loss_curve.end());
  for (const auto& [epoch, q] : retrain_stats.eval_curve) {
    train_stats_.eval_curve.emplace_back(epoch + epoch_offset, q);
  }
  // Refresh the drift baselines for the environments this retrain covered;
  // environments absent from `train` keep their previous baselines.
  for (const auto& [env_id, q] :
       ComputeEnvBaselines(*model_, train, pool_.get())) {
    env_baseline_qerror_[env_id] = q;
  }
  if (stats != nullptr) *stats = retrain_stats;
  return Status::OK();
}

namespace {

/// Serving env-id set, ascending and deduplicated: the load-time identity of
/// "which environments this pipeline knows about".
std::vector<int> SortedEnvIds(const std::vector<Environment>& envs) {
  std::vector<int> ids;
  ids.reserve(envs.size());
  for (const Environment& env : envs) ids.push_back(env.id);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

void EncodeTrainStats(const TrainStats& stats, ByteWriter* w) {
  w->PutF64(stats.train_seconds);
  w->PutU64(stats.loss_curve.size());
  for (double loss : stats.loss_curve) w->PutF64(loss);
  w->PutU64(stats.eval_curve.size());
  for (const auto& [epoch, q] : stats.eval_curve) {
    w->PutI64(epoch);
    w->PutF64(q);
  }
}

Status DecodeTrainStats(ByteReader* r, TrainStats* stats) {
  QCFE_RETURN_IF_ERROR(r->ReadF64(&stats->train_seconds));
  uint64_t losses = 0;
  QCFE_RETURN_IF_ERROR(r->ReadCount(&losses, sizeof(double)));
  stats->loss_curve.assign(static_cast<size_t>(losses), 0.0);
  for (double& loss : stats->loss_curve) QCFE_RETURN_IF_ERROR(r->ReadF64(&loss));
  uint64_t evals = 0;
  QCFE_RETURN_IF_ERROR(r->ReadCount(&evals, sizeof(int64_t) + sizeof(double)));
  stats->eval_curve.clear();
  stats->eval_curve.reserve(static_cast<size_t>(evals));
  for (uint64_t i = 0; i < evals; ++i) {
    int64_t epoch = 0;
    double q = 0.0;
    QCFE_RETURN_IF_ERROR(r->ReadI64(&epoch));
    QCFE_RETURN_IF_ERROR(r->ReadF64(&q));
    stats->eval_curve.emplace_back(static_cast<int>(epoch), q);
  }
  return Status::OK();
}

/// Fit-structure subset of PipelineConfig that Load restores so Explain and
/// ExtendSnapshots describe the artifact's fit, not the defaults. Runtime
/// knobs (parallelism, async_serve, reduction tuning) intentionally stay at
/// their defaults: they do not change what the fitted model computes.
void EncodeConfig(const PipelineConfig& config, ByteWriter* w) {
  w->PutString(config.estimator);
  w->PutBool(config.use_snapshot);
  w->PutBool(config.snapshot_from_templates);
  w->PutI64(config.snapshot_scale);
  w->PutU8(static_cast<uint8_t>(config.snapshot_granularity));
  w->PutBool(config.use_reduction);
  w->PutI64(config.pre_reduction_epochs);
  w->PutI64(config.train.epochs);
  w->PutU64(config.seed);
}

Status DecodeConfig(ByteReader* r, PipelineConfig* config) {
  QCFE_RETURN_IF_ERROR(r->ReadString(&config->estimator));
  QCFE_RETURN_IF_ERROR(r->ReadBool(&config->use_snapshot));
  QCFE_RETURN_IF_ERROR(r->ReadBool(&config->snapshot_from_templates));
  int64_t scale = 0;
  QCFE_RETURN_IF_ERROR(r->ReadI64(&scale));
  config->snapshot_scale = static_cast<int>(scale);
  uint8_t granularity = 0;
  QCFE_RETURN_IF_ERROR(r->ReadU8(&granularity));
  if (granularity > static_cast<uint8_t>(SnapshotGranularity::kOperatorTable)) {
    return Status::DataLoss("invalid config granularity byte " +
                            std::to_string(granularity));
  }
  config->snapshot_granularity = static_cast<SnapshotGranularity>(granularity);
  QCFE_RETURN_IF_ERROR(r->ReadBool(&config->use_reduction));
  int64_t pre_epochs = 0;
  QCFE_RETURN_IF_ERROR(r->ReadI64(&pre_epochs));
  config->pre_reduction_epochs = static_cast<int>(pre_epochs);
  int64_t epochs = 0;
  QCFE_RETURN_IF_ERROR(r->ReadI64(&epochs));
  config->train.epochs = static_cast<int>(epochs);
  QCFE_RETURN_IF_ERROR(r->ReadU64(&config->seed));
  return Status::OK();
}

void EncodeReduction(const ReductionResult& reduction, ByteWriter* w) {
  w->PutF64(reduction.runtime_seconds);
  w->PutU64(reduction.per_op.size());
  for (const auto& [op, result] : reduction.per_op) {
    w->PutU32(static_cast<uint32_t>(op));
    w->PutU64(result.original_dim);
    w->PutU64(result.dropped);
    w->PutU64(result.scores.size());
    for (double score : result.scores) w->PutF64(score);
    w->PutU64(result.kept.size());
    for (size_t index : result.kept) w->PutU64(index);
  }
}

/// `active` is the featurizer the kept indices select from (post-snapshot,
/// pre-mask). Every index is range-checked against the live dimensionality
/// *before* any MaskedFeaturizer is built over them — hostile kept sets must
/// fail typed, not index out of bounds.
Status DecodeReduction(ByteReader* r, const OperatorFeaturizer& active,
                       ReductionResult* reduction) {
  QCFE_RETURN_IF_ERROR(r->ReadF64(&reduction->runtime_seconds));
  uint64_t op_count = 0;
  QCFE_RETURN_IF_ERROR(r->ReadCount(&op_count, 4 + 8 + 8 + 8 + 8));
  reduction->per_op.clear();
  for (uint64_t i = 0; i < op_count; ++i) {
    uint32_t op_raw = 0;
    QCFE_RETURN_IF_ERROR(r->ReadU32(&op_raw));
    if (op_raw >= kNumOpTypes) {
      return Status::DataLoss("invalid reduction operator index " +
                              std::to_string(op_raw));
    }
    OpType op = static_cast<OpType>(op_raw);
    OpReductionResult result;
    uint64_t original_dim = 0;
    uint64_t dropped = 0;
    QCFE_RETURN_IF_ERROR(r->ReadU64(&original_dim));
    QCFE_RETURN_IF_ERROR(r->ReadU64(&dropped));
    result.original_dim = static_cast<size_t>(original_dim);
    result.dropped = static_cast<size_t>(dropped);
    if (result.original_dim != active.dim(op)) {
      return Status::FailedPrecondition(
          "reduction for operator " + std::to_string(op_raw) +
          " was computed over " + std::to_string(result.original_dim) +
          " feature dims but the live featurizer has " +
          std::to_string(active.dim(op)));
    }
    uint64_t score_count = 0;
    QCFE_RETURN_IF_ERROR(r->ReadCount(&score_count, sizeof(double)));
    result.scores.assign(static_cast<size_t>(score_count), 0.0);
    for (double& score : result.scores) QCFE_RETURN_IF_ERROR(r->ReadF64(&score));
    uint64_t kept_count = 0;
    QCFE_RETURN_IF_ERROR(r->ReadCount(&kept_count, sizeof(uint64_t)));
    result.kept.reserve(static_cast<size_t>(kept_count));
    for (uint64_t k = 0; k < kept_count; ++k) {
      uint64_t index = 0;
      QCFE_RETURN_IF_ERROR(r->ReadU64(&index));
      if (index >= active.dim(op)) {
        return Status::DataLoss(
            "reduction kept index " + std::to_string(index) +
            " out of range for operator " + std::to_string(op_raw) + " (dim " +
            std::to_string(active.dim(op)) + ")");
      }
      result.kept.push_back(static_cast<size_t>(index));
    }
    if (!reduction->per_op.emplace(op, std::move(result)).second) {
      return Status::DataLoss("duplicate reduction operator " +
                              std::to_string(op_raw));
    }
  }
  return Status::OK();
}

/// A section's payload must be consumed exactly: leftover bytes mean the
/// writer and reader disagree about the layout, which is corruption, not
/// forward evolution (evolution adds new *sections*, never trailing bytes).
Status RequireFullyConsumed(const ByteReader& r, const char* what) {
  if (r.remaining() != 0) {
    return Status::DataLoss(std::to_string(r.remaining()) +
                            " unconsumed bytes in " + what + " section");
  }
  return Status::OK();
}

}  // namespace

Status Pipeline::Save(const std::string& path, Fs* fs) const {
  if (fs == nullptr) fs = Fs::Default();

  FitFingerprint fp;
  fp.estimator = config_.estimator;
  fp.schema_hash = FeatureSchemaHash(*base_featurizer_);
  fp.has_snapshot = snapshot_store_ != nullptr;
  fp.granularity = config_.snapshot_granularity;
  fp.has_reduction = masked_featurizer_ != nullptr;
  fp.env_ids = SortedEnvIds(*envs_);
  fp.kernel_isa = kernels::KernelIsaName(kernels::GetKernelIsa());
  fp.determinism_note = kDeterminismNote;

  std::vector<artifact::Section> sections;
  {
    ByteWriter w;
    artifact::EncodeFingerprint(fp, &w);
    sections.push_back({artifact::kFingerprint, w.TakeBytes()});
  }
  {
    ByteWriter w;
    EncodeConfig(config_, &w);
    sections.push_back({artifact::kConfig, w.TakeBytes()});
  }
  if (snapshot_store_ != nullptr) {
    ByteWriter w;
    snapshot_store_->SaveBinary(&w);
    sections.push_back({artifact::kSnapshots, w.TakeBytes()});
  }
  if (masked_featurizer_ != nullptr) {
    ByteWriter w;
    EncodeReduction(reduction_, &w);
    sections.push_back({artifact::kReduction, w.TakeBytes()});
  }
  {
    ByteWriter w;
    QCFE_RETURN_IF_ERROR(
        model_->SaveState(&w).WithContext("serializing model state"));
    sections.push_back({artifact::kModel, w.TakeBytes()});
  }
  {
    ByteWriter w;
    w.PutF64(snapshot_collection_ms_);
    w.PutU64(snapshot_num_queries_);
    w.PutU64(snapshot_num_templates_);
    EncodeTrainStats(pre_train_stats_, &w);
    EncodeTrainStats(train_stats_, &w);
    sections.push_back({artifact::kStats, w.TakeBytes()});
  }
  // Optional section: omitted entirely when there are no baselines, so
  // artifacts written before online adaptation existed re-save
  // byte-identically after a Load (the golden backward-compat gate).
  if (!env_baseline_qerror_.empty()) {
    ByteWriter w;
    w.PutU64(env_baseline_qerror_.size());
    for (const auto& [env_id, q] : env_baseline_qerror_) {
      w.PutI64(env_id);
      w.PutF64(q);
    }
    sections.push_back({artifact::kAdaptBaseline, w.TakeBytes()});
  }

  return AtomicWriteFile(fs, path, artifact::Encode(sections))
      .WithContext("saving pipeline to " + path);
}

Result<std::unique_ptr<Pipeline>> Pipeline::Load(
    Database* db, const std::vector<Environment>* envs,
    const std::vector<QueryTemplate>* templates, const std::string& path,
    Fs* fs) {
  if (db == nullptr || envs == nullptr || templates == nullptr) {
    return Status::InvalidArgument(
        "Pipeline::Load requires a database, environments and templates");
  }
  if (fs == nullptr) fs = Fs::Default();

  Result<std::string> bytes = fs->ReadFile(path);
  if (!bytes.ok()) {
    return bytes.status().WithContext("loading pipeline from " + path);
  }
  std::vector<artifact::Section> sections;
  QCFE_RETURN_IF_ERROR(artifact::Decode(*bytes, &sections)
                           .WithContext("loading pipeline from " + path));

  // Fingerprint first: nothing else is interpreted until the artifact is
  // known to belong to this world.
  const artifact::Section* fp_section =
      artifact::Find(sections, artifact::kFingerprint);
  if (fp_section == nullptr) {
    return Status::DataLoss("artifact has no fingerprint section");
  }
  FitFingerprint fp;
  {
    ByteReader r(fp_section->payload);
    QCFE_RETURN_IF_ERROR(
        artifact::DecodeFingerprint(&r, &fp).WithContext("fingerprint"));
    QCFE_RETURN_IF_ERROR(RequireFullyConsumed(r, "fingerprint"));
  }

  EstimatorRegistry& registry = EstimatorRegistry::Global();
  Result<EstimatorInfo> info = registry.Info(fp.estimator);
  if (!info.ok()) {
    return info.status().WithContext("artifact estimator \"" + fp.estimator +
                                     "\"");
  }

  auto pipeline = std::unique_ptr<Pipeline>(new Pipeline());
  pipeline->db_ = db;
  pipeline->envs_ = envs;
  pipeline->templates_ = templates;
  pipeline->info_ = *info;

  const artifact::Section* config_section =
      artifact::Find(sections, artifact::kConfig);
  if (config_section == nullptr) {
    return Status::DataLoss("artifact has no config section");
  }
  {
    ByteReader r(config_section->payload);
    QCFE_RETURN_IF_ERROR(
        DecodeConfig(&r, &pipeline->config_).WithContext("config"));
    QCFE_RETURN_IF_ERROR(RequireFullyConsumed(r, "config"));
  }
  // The config section must agree with the fingerprint — both are written by
  // the same Save, so disagreement means tampering or corruption.
  if (pipeline->config_.estimator != fp.estimator ||
      pipeline->config_.use_snapshot != fp.has_snapshot ||
      pipeline->config_.use_reduction != fp.has_reduction ||
      pipeline->config_.snapshot_granularity != fp.granularity) {
    return Status::DataLoss("config section disagrees with the fingerprint");
  }

  // Validate against the live world. The schema hash is recomputed from a
  // freshly built base featurizer over the caller's catalog, so any drift in
  // tables, columns or featurizer layout rejects the artifact here.
  pipeline->base_featurizer_ = std::make_unique<BaseFeaturizer>(db->catalog());
  const uint64_t live_hash = FeatureSchemaHash(*pipeline->base_featurizer_);
  if (live_hash != fp.schema_hash) {
    return Status::FailedPrecondition(
        "feature-schema hash mismatch: artifact was fit against hash " +
        std::to_string(fp.schema_hash) + " but this catalog/featurizer hashes " +
        std::to_string(live_hash));
  }
  const std::vector<int> live_envs = SortedEnvIds(*envs);
  if (live_envs != fp.env_ids) {
    std::ostringstream os;
    os << "environment set mismatch: artifact was fit for env ids [";
    for (size_t i = 0; i < fp.env_ids.size(); ++i) {
      os << (i == 0 ? "" : " ") << fp.env_ids[i];
    }
    os << "] but the caller serves [";
    for (size_t i = 0; i < live_envs.size(); ++i) {
      os << (i == 0 ? "" : " ") << live_envs[i];
    }
    os << "]";
    return Status::FailedPrecondition(os.str());
  }

  const OperatorFeaturizer* active = pipeline->base_featurizer_.get();

  if (fp.has_snapshot) {
    const artifact::Section* snap_section =
        artifact::Find(sections, artifact::kSnapshots);
    if (snap_section == nullptr) {
      return Status::DataLoss(
          "fingerprint promises a snapshot store but the section is missing");
    }
    pipeline->snapshot_store_ = std::make_unique<SnapshotStore>();
    ByteReader r(snap_section->payload);
    QCFE_RETURN_IF_ERROR(
        SnapshotStore::LoadBinary(&r, pipeline->snapshot_store_.get())
            .WithContext("snapshot store"));
    QCFE_RETURN_IF_ERROR(RequireFullyConsumed(r, "snapshot"));
    if (pipeline->snapshot_store_->EnvIds() != fp.env_ids) {
      return Status::DataLoss(
          "snapshot store covers a different env set than the fingerprint");
    }
    for (int env_id : fp.env_ids) {
      const FeatureSnapshot* snapshot = pipeline->snapshot_store_->Get(env_id);
      if (snapshot != nullptr && snapshot->granularity() != fp.granularity) {
        return Status::DataLoss(
            "snapshot granularity disagrees with the fingerprint");
      }
    }
    pipeline->snapshot_featurizer_ = std::make_unique<SnapshotFeaturizer>(
        active, pipeline->snapshot_store_.get(),
        fp.granularity == SnapshotGranularity::kOperatorTable);
    active = pipeline->snapshot_featurizer_.get();
  }

  if (fp.has_reduction) {
    const artifact::Section* red_section =
        artifact::Find(sections, artifact::kReduction);
    if (red_section == nullptr) {
      return Status::DataLoss(
          "fingerprint promises a reduction but the section is missing");
    }
    ByteReader r(red_section->payload);
    QCFE_RETURN_IF_ERROR(
        DecodeReduction(&r, *active, &pipeline->reduction_)
            .WithContext("reduction"));
    QCFE_RETURN_IF_ERROR(RequireFullyConsumed(r, "reduction"));
    pipeline->masked_featurizer_ = std::make_unique<MaskedFeaturizer>(
        active, pipeline->reduction_.KeptMap(info->uniform_feature_width));
    active = pipeline->masked_featurizer_.get();
  }

  const artifact::Section* model_section =
      artifact::Find(sections, artifact::kModel);
  if (model_section == nullptr) {
    return Status::DataLoss("artifact has no model section");
  }
  // Same construction call as Fit (same seed offset), so the net layout the
  // weights load into is exactly the layout they were trained in.
  Result<std::unique_ptr<CostModel>> model = registry.Create(
      fp.estimator, {db->catalog(), active, pipeline->config_.seed + 2});
  if (!model.ok()) return model.status();
  pipeline->model_ = std::move(model.value());
  {
    ByteReader r(model_section->payload);
    QCFE_RETURN_IF_ERROR(
        pipeline->model_->LoadState(&r).WithContext("model state"));
    QCFE_RETURN_IF_ERROR(RequireFullyConsumed(r, "model"));
  }

  const artifact::Section* stats_section =
      artifact::Find(sections, artifact::kStats);
  if (stats_section == nullptr) {
    return Status::DataLoss("artifact has no stats section");
  }
  {
    ByteReader r(stats_section->payload);
    QCFE_RETURN_IF_ERROR(r.ReadF64(&pipeline->snapshot_collection_ms_));
    uint64_t queries = 0;
    uint64_t num_templates = 0;
    QCFE_RETURN_IF_ERROR(r.ReadU64(&queries));
    QCFE_RETURN_IF_ERROR(r.ReadU64(&num_templates));
    pipeline->snapshot_num_queries_ = static_cast<size_t>(queries);
    pipeline->snapshot_num_templates_ = static_cast<size_t>(num_templates);
    QCFE_RETURN_IF_ERROR(DecodeTrainStats(&r, &pipeline->pre_train_stats_)
                             .WithContext("pre-train stats"));
    QCFE_RETURN_IF_ERROR(DecodeTrainStats(&r, &pipeline->train_stats_)
                             .WithContext("train stats"));
    QCFE_RETURN_IF_ERROR(RequireFullyConsumed(r, "stats"));
  }

  // Drift baselines are optional: pre-adaptation artifacts have no such
  // section, which decodes as "no baselines" (the DriftDetector then falls
  // back to its configured default).
  const artifact::Section* baseline_section =
      artifact::Find(sections, artifact::kAdaptBaseline);
  if (baseline_section != nullptr) {
    ByteReader r(baseline_section->payload);
    uint64_t count = 0;
    QCFE_RETURN_IF_ERROR(
        r.ReadCount(&count, sizeof(int64_t) + sizeof(double)));
    for (uint64_t i = 0; i < count; ++i) {
      int64_t env_id = 0;
      double q = 0.0;
      QCFE_RETURN_IF_ERROR(r.ReadI64(&env_id));
      QCFE_RETURN_IF_ERROR(r.ReadF64(&q));
      pipeline->env_baseline_qerror_[static_cast<int>(env_id)] = q;
    }
    QCFE_RETURN_IF_ERROR(RequireFullyConsumed(r, "adapt baseline"));
  }

  return pipeline;
}

}  // namespace qcfe
