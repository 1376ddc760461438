#include "core/dataset_catalog.h"

#include <utility>

#include "common/str_format.h"

namespace mwsj {

int64_t DatasetCatalog::PutDataset(
    const std::string& name, std::shared_ptr<const std::vector<Rect>> data) {
  MutexLock lock(&mu_);
  auto [it, inserted] = datasets_.try_emplace(name);
  if (!inserted) {
    ++it->second.epoch;
    EvictArtifactsOf(name);
  }
  it->second.data = std::move(data);
  return it->second.epoch;
}

void DatasetCatalog::EvictArtifactsOf(const std::string& name) {
  // Every key derived from this dataset embeds its length-prefixed
  // "N:name@epoch" token (bundle keys and the scheduler's base artifact
  // key both render data_key), and at bump time every resident mention
  // refers to a superseded epoch — so dropping keys containing the token
  // frees exactly the stale bundles, grids, and round-1 markings. A
  // token false positive (another name whose rendering happens to embed
  // this token) only over-evicts: a safe miss, never a wrong hit. An
  // evicted in-flight build is not published (its flight is gone), and
  // its waiters wake to build the key themselves. A job still running
  // against the old epoch builds its later artifacts uncached
  // (NamesSupersededEpoch), so nothing stale is stored after the bump.
  const std::string token = EpochToken(name);
  for (auto it = artifacts_.begin(); it != artifacts_.end();) {
    if (it->first.find(token) != std::string::npos) {
      if (it->second.value != nullptr) {
        evictions_.fetch_add(1, std::memory_order_relaxed);
      }
      it = artifacts_.erase(it);
    } else {
      ++it;
    }
  }
  settled_.NotifyAll();
}

std::string DatasetCatalog::EpochToken(const std::string& name) {
  return StrFormat("%zu:", name.size()) + name + "@";
}

bool DatasetCatalog::NamesSupersededEpoch(const std::string& key) const {
  for (const auto& [name, dataset] : datasets_) {
    if (dataset.epoch == 0) continue;  // No epoch of it is superseded yet.
    const std::string token = EpochToken(name);
    const std::string current =
        StrFormat("%lld", static_cast<long long>(dataset.epoch));
    for (size_t at = key.find(token); at != std::string::npos;
         at = key.find(token, at + 1)) {
      // The digits after every mention must be the current epoch. Like
      // eviction, a false positive only costs an uncached build.
      const size_t from = at + token.size();
      size_t to = from;
      while (to < key.size() && key[to] >= '0' && key[to] <= '9') ++to;
      if (to > from && key.compare(from, to - from, current) != 0) {
        return true;
      }
    }
  }
  return false;
}

int64_t DatasetCatalog::PutDataset(const std::string& name,
                                   std::vector<Rect> data) {
  return PutDataset(
      name, std::make_shared<const std::vector<Rect>>(std::move(data)));
}

StatusOr<DatasetCatalog::RelationBundle> DatasetCatalog::GetRelationBundle(
    const std::vector<std::string>& names) {
  // Resolve every name and its epoch under one lock acquisition so the
  // bundle key and the bundle contents describe the same data versions.
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
      resolved.push_back(it->second.data);
      if (i > 0) data_key += ',';
      // Length-prefixed, like Query::CanonicalForm, so names containing
      // the separators cannot forge another bundle's key.
      data_key += StrFormat("%zu:", names[i].size());
      data_key += names[i];
      data_key += StrFormat("@%lld", static_cast<long long>(it->second.epoch));
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
  int64_t flight = 0;
  {
    MutexLock lock(&mu_);
    for (;;) {
      if (!artifacts_.contains(key) && NamesSupersededEpoch(key)) {
        // Built for a job that resolved its data before a PutDataset: the
        // value is unreachable by any new key, so it is built uncached and
        // never stored (flight 0 matches no entry below).
        misses_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      auto [it, inserted] = artifacts_.try_emplace(key);
      Artifact& artifact = it->second;
      if (inserted) {
        artifact.type = &type;
        artifact.flight = flight = ++next_flight_;
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
      settled_.Wait(mu_);  // In flight: wait for its builder, then re-check.
    }
  }
  StatusOr<std::shared_ptr<const void>> built = build();
  {
    MutexLock lock(&mu_);
    const auto it = artifacts_.find(key);
    // Publish (or, on failure, withdraw) only our own flight: an eviction
    // may have removed it, and a waiter may have started a new one since.
    if (it != artifacts_.end() && it->second.flight == flight) {
      if (built.ok()) {
        it->second.value = built.value();
      } else {
        artifacts_.erase(it);
      }
    }
    settled_.NotifyAll();
  }
  if (!built.ok()) return built.status();
  return Resident<void>{std::move(built).value(), false};
}

}  // namespace mwsj
