#include "core/dataset_catalog.h"

#include <utility>

#include "common/str_format.h"

namespace mwsj {

Status DatasetCatalog::PutDataset(
    const std::string& name, std::shared_ptr<const std::vector<Rect>> data) {
  MutexLock lock(&mu_);
  if (!datasets_.try_emplace(name, std::move(data)).second) {
    return Status::AlreadyExists(StrFormat(
        "dataset '%s' is already in the catalog", name.c_str()));
  }
  return Status::OK();
}

Status DatasetCatalog::PutDataset(const std::string& name,
                                  std::vector<Rect> data) {
  return PutDataset(
      name, std::make_shared<const std::vector<Rect>>(std::move(data)));
}

StatusOr<DatasetCatalog::RelationBundle> DatasetCatalog::GetRelationBundle(
    const std::vector<std::string>& names) {
  std::vector<std::shared_ptr<const std::vector<Rect>>> resolved;
  resolved.reserve(names.size());
  std::string data_key = "data[";
  {
    MutexLock lock(&mu_);
    for (size_t i = 0; i < names.size(); ++i) {
      const auto it = datasets_.find(names[i]);
      if (it == datasets_.end()) {
        return Status::NotFound(
            StrFormat("dataset '%s' is not in the catalog", names[i].c_str()));
      }
      resolved.push_back(it->second);
      if (i > 0) data_key += ',';
      // Length-prefixed, like Query::CanonicalForm, so names containing
      // the separators cannot forge another bundle's key.
      data_key += StrFormat("%zu:", names[i].size());
      data_key += names[i];
    }
  }
  data_key += ']';

  // Assembled outside the lock (the copies can be large), once per key.
  StatusOr<Resident<std::vector<std::vector<Rect>>>> assembled =
      GetOrBuild<std::vector<std::vector<Rect>>>(
          this, "bundle|" + data_key, [&resolved] {
            std::vector<std::vector<Rect>> relations;
            relations.reserve(resolved.size());
            for (const auto& data : resolved) relations.push_back(*data);
            return relations;
          });
  if (!assembled.ok()) return assembled.status();
  return RelationBundle{std::move(assembled.value().value),
                        std::move(data_key), assembled.value().cached};
}

StatusOr<DatasetCatalog::Resident<void>> DatasetCatalog::Uncached(
    const ErasedBuild& build) {
  StatusOr<std::shared_ptr<const void>> built = build();
  if (!built.ok()) return built.status();
  return Resident<void>{std::move(built).value(), false};
}

StatusOr<DatasetCatalog::Resident<void>> DatasetCatalog::GetOrBuildErased(
    const std::string& key, const std::type_info& type,
    const ErasedBuild& build) {
  {
    MutexLock lock(&mu_);
    for (;;) {
      auto [it, inserted] = artifacts_.try_emplace(key);
      Artifact& artifact = it->second;
      if (inserted) {
        artifact.type = &type;
        misses_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      // Key discipline makes a cross-type lookup a bug; refuse to
      // reinterpret the resident value.
      if (*artifact.type != type) {
        return Status::InvalidArgument(StrFormat(
            "catalog artifact '%s' holds a different type", key.c_str()));
      }
      if (artifact.value != nullptr) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return Resident<void>{artifact.value, true};
      }
      settled_.Wait(mu_);  // Being built: wait for its builder, re-check.
    }
  }
  StatusOr<std::shared_ptr<const void>> built = build();
  {
    MutexLock lock(&mu_);
    // Only this builder settles the entry it inserted: waiters never
    // touch it, so it is still there.
    const auto it = artifacts_.find(key);
    if (built.ok()) {
      it->second.value = built.value();
    } else {
      artifacts_.erase(it);
    }
    settled_.NotifyAll();
  }
  if (!built.ok()) return built.status();
  return Resident<void>{std::move(built).value(), false};
}

}  // namespace mwsj
