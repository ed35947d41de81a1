#include "core/feature_snapshot.h"

#include <cmath>
#include <string>
#include <utility>

#include "nn/linalg.h"
#include "util/serialize.h"

namespace qcfe {

size_t FeatureSnapshot::DesignRow(OpType op, double n, double n2,
                                  std::array<double, kSnapshotWidth>* row) {
  row->fill(0.0);
  switch (op) {
    case OpType::kSort:
      (*row)[0] = n * std::log2(std::max(n, 2.0));
      (*row)[1] = 1.0;
      return 2;
    case OpType::kNestedLoop:
      (*row)[0] = n * n2;
      (*row)[1] = n;
      (*row)[2] = n2;
      (*row)[3] = 1.0;
      return 4;
    default:
      // Seq/Index Scan, Materialize, Aggregation, Merge/Hash Join.
      (*row)[0] = n;
      (*row)[1] = 1.0;
      return 2;
  }
}

namespace {

/// NNLS fit of one operator type's observations against its Table I formula.
Result<OperatorSnapshot> FitOne(
    OpType op, const std::vector<const OperatorObservation*>& obs) {
  std::array<double, kSnapshotWidth> probe;
  size_t width = FeatureSnapshot::DesignRow(op, 1.0, 1.0, &probe);
  Matrix a(obs.size(), width);
  std::vector<double> y(obs.size());
  for (size_t i = 0; i < obs.size(); ++i) {
    std::array<double, kSnapshotWidth> row;
    FeatureSnapshot::DesignRow(op, obs[i]->n, obs[i]->n2, &row);
    for (size_t c = 0; c < width; ++c) a.At(i, c) = row[c];
    y[i] = obs[i]->ms;
  }
  Result<std::vector<double>> coeffs = NonNegativeLeastSquares(a, y);
  if (!coeffs.ok()) return coeffs.status();
  OperatorSnapshot os;
  for (size_t c = 0; c < width; ++c) os.coeffs[c] = (*coeffs)[c];
  os.num_observations = obs.size();
  return os;
}

/// Minimum observations before a dedicated per-table fit is trustworthy.
constexpr size_t kMinFineObservations = 8;

}  // namespace

Result<FeatureSnapshot> FeatureSnapshot::Fit(
    const std::vector<OperatorObservation>& observations,
    SnapshotGranularity granularity) {
  FeatureSnapshot snapshot;
  snapshot.granularity_ = granularity;
  // Partition observations by operator type (and optionally table).
  std::array<std::vector<const OperatorObservation*>, kNumOpTypes> by_op;
  std::map<std::string, std::vector<const OperatorObservation*>> by_op_table;
  for (const auto& obs : observations) {
    by_op[static_cast<size_t>(obs.op)].push_back(&obs);
    if (granularity == SnapshotGranularity::kOperatorTable &&
        !obs.table.empty()) {
      by_op_table[std::to_string(static_cast<size_t>(obs.op)) + "|" +
                  obs.table]
          .push_back(&obs);
    }
  }
  for (OpType op : AllOpTypes()) {
    size_t oi = static_cast<size_t>(op);
    if (by_op[oi].empty()) continue;
    Result<OperatorSnapshot> fitted = FitOne(op, by_op[oi]);
    if (!fitted.ok()) return fitted.status();
    snapshot.per_op_[oi] = std::move(fitted.value());
  }
  for (const auto& [key, obs] : by_op_table) {
    if (obs.size() < kMinFineObservations) continue;
    Result<OperatorSnapshot> fitted = FitOne(obs[0]->op, obs);
    if (!fitted.ok()) return fitted.status();
    snapshot.fine_[key] = std::move(fitted.value());
  }
  return snapshot;
}

const OperatorSnapshot& FeatureSnapshot::GetFine(
    OpType op, const std::string& table) const {
  auto it =
      fine_.find(std::to_string(static_cast<size_t>(op)) + "|" + table);
  if (it != fine_.end()) return it->second;
  return per_op_[static_cast<size_t>(op)];
}

std::vector<OperatorObservation> FeatureSnapshot::ObservationsFrom(
    const LabeledQuerySet& set) {
  std::vector<OperatorObservation> out;
  for (const auto& q : set.queries) {
    q.plan->VisitConst([&](const PlanNode* node) {
      OperatorObservation obs;
      obs.op = node->op;
      obs.n = node->input_card;
      obs.n2 = node->input_card2;
      obs.ms = node->actual_ms;
      obs.table = node->table;
      out.push_back(obs);
    });
  }
  return out;
}

double FeatureSnapshot::PredictMs(OpType op, double n, double n2) const {
  std::array<double, kSnapshotWidth> row;
  size_t width = DesignRow(op, n, n2, &row);
  const OperatorSnapshot& os = per_op_[static_cast<size_t>(op)];
  double out = 0.0;
  for (size_t c = 0; c < width; ++c) out += os.coeffs[c] * row[c];
  return out;
}

namespace {

void WriteOperatorSnapshot(const OperatorSnapshot& os, ByteWriter* w) {
  for (double c : os.coeffs) w->PutF64(c);
  w->PutU64(os.num_observations);
}

Status ReadOperatorSnapshot(ByteReader* r, OperatorSnapshot* os) {
  for (double& c : os->coeffs) QCFE_RETURN_IF_ERROR(r->ReadF64(&c));
  uint64_t n = 0;
  QCFE_RETURN_IF_ERROR(r->ReadU64(&n));
  os->num_observations = static_cast<size_t>(n);
  return Status::OK();
}

}  // namespace

void FeatureSnapshot::SaveBinary(ByteWriter* w) const {
  w->PutU8(static_cast<uint8_t>(granularity_));
  for (const OperatorSnapshot& os : per_op_) WriteOperatorSnapshot(os, w);
  w->PutU64(fine_.size());
  for (const auto& [key, os] : fine_) {
    w->PutString(key);
    WriteOperatorSnapshot(os, w);
  }
}

Status FeatureSnapshot::LoadBinary(ByteReader* r, FeatureSnapshot* out) {
  uint8_t granularity = 0;
  QCFE_RETURN_IF_ERROR(r->ReadU8(&granularity));
  if (granularity > static_cast<uint8_t>(SnapshotGranularity::kOperatorTable)) {
    return Status::DataLoss("invalid snapshot granularity byte " +
                            std::to_string(granularity));
  }
  out->granularity_ = static_cast<SnapshotGranularity>(granularity);
  for (OperatorSnapshot& os : out->per_op_) {
    QCFE_RETURN_IF_ERROR(ReadOperatorSnapshot(r, &os));
  }
  uint64_t fine_count = 0;
  // A fine entry is at least key length (8) + 4 coeffs + count.
  QCFE_RETURN_IF_ERROR(r->ReadCount(&fine_count, 8 + kSnapshotWidth * 8 + 8));
  out->fine_.clear();
  for (uint64_t i = 0; i < fine_count; ++i) {
    std::string key;
    OperatorSnapshot os;
    QCFE_RETURN_IF_ERROR(r->ReadString(&key));
    QCFE_RETURN_IF_ERROR(ReadOperatorSnapshot(r, &os));
    if (!out->fine_.emplace(std::move(key), os).second) {
      return Status::DataLoss("duplicate fine snapshot key");
    }
  }
  return Status::OK();
}

std::vector<int> SnapshotStore::EnvIds() const {
  std::vector<int> ids;
  ids.reserve(snapshots_.size());
  for (const auto& [env_id, snapshot] : snapshots_) ids.push_back(env_id);
  return ids;
}

void SnapshotStore::SaveBinary(ByteWriter* w) const {
  w->PutU64(snapshots_.size());
  for (const auto& [env_id, snapshot] : snapshots_) {
    w->PutI64(env_id);
    snapshot.SaveBinary(w);
  }
}

Status SnapshotStore::LoadBinary(ByteReader* r, SnapshotStore* out) {
  uint64_t count = 0;
  // A store entry is at least env id (8) + granularity (1) + per-op block.
  QCFE_RETURN_IF_ERROR(
      r->ReadCount(&count, 8 + 1 + kNumOpTypes * (kSnapshotWidth * 8 + 8)));
  std::map<int, FeatureSnapshot> loaded;
  for (uint64_t i = 0; i < count; ++i) {
    int64_t env_id = 0;
    QCFE_RETURN_IF_ERROR(r->ReadI64(&env_id));
    FeatureSnapshot snapshot;
    QCFE_RETURN_IF_ERROR(
        FeatureSnapshot::LoadBinary(r, &snapshot)
            .WithContext("snapshot for env " + std::to_string(env_id)));
    // Uniformity validated here with a typed error, not in Put: corrupted
    // bytes must never reach the fitting contract's QCFE_CHECK abort.
    if (!loaded.empty() &&
        snapshot.granularity() != loaded.begin()->second.granularity()) {
      return Status::DataLoss("snapshot store mixes granularities");
    }
    if (!loaded.emplace(static_cast<int>(env_id), std::move(snapshot))
             .second) {
      return Status::DataLoss("duplicate snapshot env id " +
                              std::to_string(env_id));
    }
  }
  out->snapshots_ = std::move(loaded);
  return Status::OK();
}

}  // namespace qcfe
