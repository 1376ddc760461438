#ifndef MWSJ_CORE_DATASET_CATALOG_H_
#define MWSJ_CORE_DATASET_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <typeinfo>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "geometry/rect.h"

namespace mwsj {

/// Keeps ingested relations and derived partitioning artifacts resident
/// between jobs, so a repeat query skips the work a cold run pays for:
/// assembling per-relation inputs, building the reducer grid, and — for the
/// Controlled-Replicate family — the whole round-1 marking job (the paper's
/// split+mark round), following the map-side-join insight that inputs
/// already partitioned by a prior round should not be re-partitioned.
///
/// Three layers, each value built once and immutable once stored:
///
///   * **Datasets** — named rectangle sets with a monotonically increasing
///     *epoch*. Re-putting a name bumps its epoch, which changes every key
///     derived from the dataset, so stale artifacts are never served — and
///     the bump *evicts* every resident bundle/artifact whose key
///     references a superseded epoch of the name, so a long-running
///     service with dataset churn does not grow memory without bound.
///   * **Relation bundles** — the `vector<vector<Rect>>` a runner consumes,
///     assembled once per distinct (name@epoch, ...) list and shared by
///     every subsequent job over the same inputs.
///   * **Artifacts** — a typed key→value cache for derived immutable
///     values (grid partitionings, C-Rep round-1 markings, kNN-MR cell
///     bounds). Keys embed the query canonical form, the dataset epochs,
///     and the artifact kind, so a key can never alias across queries,
///     data versions, or types; a type check backs that up at retrieval.
///
/// Every artifact (bundles included) goes through GetOrBuild, which builds
/// each key at most once: concurrent callers for a key being built wait
/// for the builder and share its value. Thread-safe; the catalog lock is
/// never held while a value is built. Global hit/miss counters aggregate
/// across jobs; per-run attribution is the caller's job (each GetOrBuild
/// reports whether its value was `cached`, and the runner counts those
/// into RunStats).
class DatasetCatalog {
 public:
  DatasetCatalog() = default;
  DatasetCatalog(const DatasetCatalog&) = delete;
  DatasetCatalog& operator=(const DatasetCatalog&) = delete;

  /// Registers (or replaces) dataset `name` and returns its new epoch.
  /// Epochs start at 0 and increase by 1 per Put of the same name.
  int64_t PutDataset(const std::string& name,
                     std::shared_ptr<const std::vector<Rect>> data)
      EXCLUDES(mu_);
  int64_t PutDataset(const std::string& name, std::vector<Rect> data)
      EXCLUDES(mu_);

  /// A value from GetOrBuild: the shared immutable artifact, and whether
  /// it was already resident (built by an earlier or concurrent caller)
  /// rather than built by this call.
  template <typename T>
  struct Resident {
    std::shared_ptr<const T> value;
    bool cached = false;
  };

  /// A runner-ready view over the named datasets, in request order.
  struct RelationBundle {
    /// One entry per requested name; shared across jobs, never mutated.
    std::shared_ptr<const std::vector<std::vector<Rect>>> relations;
    /// Epoch-qualified identity of the inputs, in request order:
    /// "data[<len>:<name>@<epoch>,...]". Artifact keys derive from this,
    /// so any dataset replacement invalidates them implicitly.
    std::string data_key;
    /// True when the assembled bundle was already resident.
    bool cached = false;
  };

  /// Assembles (or retrieves) the bundle for `names`. The epochs captured
  /// in `data_key` are the ones the returned data actually has — resolved
  /// atomically, so a concurrent PutDataset cannot tear the bundle.
  /// Returns NotFound when any name is absent.
  StatusOr<RelationBundle> GetRelationBundle(
      const std::vector<std::string>& names) EXCLUDES(mu_);

  /// The artifact resident under `key` in `catalog`, or the one `build`
  /// (a callable returning StatusOr<T>, or T) makes — built at most once
  /// per key:
  ///
  ///   * the first caller for an absent key counts a miss, marks the key
  ///     in flight and runs `build` without holding the catalog lock;
  ///   * a concurrent caller for that key waits for the builder and then
  ///     counts a hit on its value (a resident key is a hit at once);
  ///   * a failed build leaves nothing resident and returns its error, and
  ///     a waiting caller then builds the key itself;
  ///   * if a PutDataset evicts the key while it is being built, the
  ///     builder returns its value without publishing it and any waiter
  ///     builds afresh;
  ///   * an absent key that names a superseded epoch of a dataset (a job
  ///     that resolved its bundle before a PutDataset) counts a miss and
  ///     is built uncached: no new key can reach it, so it is not stored.
  ///
  /// A null `catalog` or an empty `key` runs `build` uncached (`cached` is
  /// false, nothing is counted). A key resident under another type is an
  /// InvalidArgument error.
  template <typename T, typename Build>
  static StatusOr<Resident<T>> GetOrBuild(DatasetCatalog* catalog,
                                          const std::string& key,
                                          Build&& build) {
    const ErasedBuild erased =
        [&build]() -> StatusOr<std::shared_ptr<const void>> {
      StatusOr<T> built = build();
      if (!built.ok()) return built.status();
      return std::shared_ptr<const void>(
          std::make_shared<const T>(std::move(built).value()));
    };
    StatusOr<Resident<void>> got =
        catalog == nullptr || key.empty()
            ? Uncached(erased)
            : catalog->GetOrBuildErased(key, typeid(T), erased);
    if (!got.ok()) return got.status();
    return Resident<T>{
        std::static_pointer_cast<const T>(std::move(got.value().value)),
        got.value().cached};
  }

  /// Cross-job reuse totals (bundle + artifact lookups).
  int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  int64_t misses() const { return misses_.load(std::memory_order_relaxed); }

  /// Artifacts dropped because a PutDataset superseded an epoch their key
  /// references.
  int64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

 private:
  using ErasedBuild = std::function<StatusOr<std::shared_ptr<const void>>()>;

  struct Dataset {
    std::shared_ptr<const std::vector<Rect>> data;
    int64_t epoch = 0;
  };
  /// A resident artifact, or one in flight: `value` is null while its
  /// builder (identified by `flight`) runs.
  struct Artifact {
    std::shared_ptr<const void> value;
    const std::type_info* type = nullptr;
    int64_t flight = 0;
  };

  static StatusOr<Resident<void>> Uncached(const ErasedBuild& build);

  /// "<len>:<name>@", the prefix of `name`'s epoch token in every key
  /// derived from the dataset.
  static std::string EpochToken(const std::string& name);

  /// True when `key` names an epoch of some dataset other than its
  /// current one.
  bool NamesSupersededEpoch(const std::string& key) const REQUIRES(mu_);

  /// GetOrBuild for a non-null catalog and non-empty key.
  StatusOr<Resident<void>> GetOrBuildErased(const std::string& key,
                                            const std::type_info& type,
                                            const ErasedBuild& build)
      EXCLUDES(mu_);

  /// Drops every artifact whose key references `name` (all resident
  /// mentions are of superseded epochs at bump time), in-flight ones
  /// included, and wakes their waiters.
  void EvictArtifactsOf(const std::string& name) REQUIRES(mu_);

  Mutex mu_;
  /// Signalled whenever an in-flight artifact is published, abandoned
  /// (failed build) or evicted.
  CondVar settled_;
  std::map<std::string, Dataset> datasets_ GUARDED_BY(mu_);
  std::map<std::string, Artifact> artifacts_ GUARDED_BY(mu_);
  int64_t next_flight_ GUARDED_BY(mu_) = 0;
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> evictions_{0};
};

}  // namespace mwsj

#endif  // MWSJ_CORE_DATASET_CATALOG_H_
