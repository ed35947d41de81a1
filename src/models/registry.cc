#include "models/registry.h"

#include "util/check.h"
#include "util/string_util.h"

namespace qcfe {

EstimatorRegistry& EstimatorRegistry::Global() {
  // Leaked on purpose: registrations run during static init, so the registry
  // must outlive every static destructor.
  // qcfe-lint: allow(no-naked-new)
  static EstimatorRegistry* registry = new EstimatorRegistry();
  return *registry;
}

Status EstimatorRegistry::Register(EstimatorInfo info, Factory factory) {
  if (info.name.empty()) {
    return Status::InvalidArgument("estimator name must not be empty");
  }
  if (factory == nullptr) {
    return Status::InvalidArgument("estimator factory must not be null");
  }
  WriterMutexLock lock(&mu_);
  // Copy the key before moving `info` into the entry: evaluation order of
  // the emplace arguments is unspecified.
  std::string name = info.name;
  auto [it, inserted] = entries_.emplace(
      std::move(name), Entry{std::move(info), std::move(factory)});
  if (!inserted) {
    return Status::InvalidArgument("estimator already registered: " +
                                   it->first);
  }
  return Status::OK();
}

Result<std::unique_ptr<CostModel>> EstimatorRegistry::Create(
    const std::string& name, const EstimatorContext& context) const {
  Factory factory;
  {
    ReaderMutexLock lock(&mu_);
    auto it = entries_.find(name);
    if (it == entries_.end()) {
      std::vector<std::string> names;
      for (const auto& [key, entry] : entries_) {
        (void)entry;
        names.push_back(key);
      }
      return Status::NotFound("unknown estimator \"" + name +
                              "\" (registered: " + Join(names, ", ") + ")");
    }
    factory = it->second.factory;
  }
  return factory(context);
}

Result<EstimatorInfo> EstimatorRegistry::Info(const std::string& name) const {
  ReaderMutexLock lock(&mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("unknown estimator \"" + name + "\"");
  }
  return it->second.info;
}

EstimatorRegistration::EstimatorRegistration(EstimatorInfo info,
                                             EstimatorRegistry::Factory factory) {
  // A failed static registration (duplicate or empty name) is a programming
  // bug; abort at startup instead of silently dropping the estimator.
  QCFE_CHECK_OK(
      EstimatorRegistry::Global().Register(std::move(info), std::move(factory)));
}

}  // namespace qcfe
