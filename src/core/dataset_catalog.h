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
///   * **Datasets** — named rectangle sets, registered once: a name's data
///     never changes, so no key derived from it can go stale.
///   * **Relation bundles** — the `vector<vector<Rect>>` a runner consumes,
///     assembled once per distinct name list and shared by every
///     subsequent job over the same inputs.
///   * **Artifacts** — a typed key→value cache for derived immutable
///     values (grid partitionings, C-Rep round-1 markings, kNN-MR cell
///     bounds). Keys embed the query canonical form, the dataset names,
///     and the artifact kind, so a key can never alias across queries,
///     inputs, or types; a type check backs that up at retrieval.
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

  /// Registers dataset `name`. A name is registered once: putting it again
  /// is AlreadyExists and leaves its data and resident artifacts as they
  /// were.
  Status PutDataset(const std::string& name,
                    std::shared_ptr<const std::vector<Rect>> data)
      EXCLUDES(mu_);
  Status PutDataset(const std::string& name, std::vector<Rect> data)
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
    /// Identity of the inputs, in request order: "data[<len>:<name>,...]".
    /// Artifact keys derive from this; since a name's data never changes,
    /// the names alone identify it.
    std::string data_key;
    /// True when the assembled bundle was already resident.
    bool cached = false;
  };

  /// Assembles (or retrieves) the bundle for `names`. Returns NotFound
  /// when any name is absent.
  StatusOr<RelationBundle> GetRelationBundle(
      const std::vector<std::string>& names) EXCLUDES(mu_);

  /// The artifact resident under `key` in `catalog`, or the one `build`
  /// (a callable returning StatusOr<T>, or T) makes — built at most once
  /// per key:
  ///
  ///   * the first caller for an absent key counts a miss, marks the key
  ///     as being built and runs `build` without holding the catalog lock;
  ///   * a concurrent caller for that key waits for the builder and then
  ///     counts a hit on its value (a resident key is a hit at once);
  ///   * a failed build leaves nothing resident and returns its error, and
  ///     a waiting caller then builds the key itself.
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

 private:
  using ErasedBuild = std::function<StatusOr<std::shared_ptr<const void>>()>;

  /// A resident artifact, or one being built: `value` is null until its
  /// builder publishes it.
  struct Artifact {
    std::shared_ptr<const void> value;
    const std::type_info* type = nullptr;
  };

  static StatusOr<Resident<void>> Uncached(const ErasedBuild& build);

  /// GetOrBuild for a non-null catalog and non-empty key.
  StatusOr<Resident<void>> GetOrBuildErased(const std::string& key,
                                            const std::type_info& type,
                                            const ErasedBuild& build)
      EXCLUDES(mu_);

  Mutex mu_;
  /// Signalled whenever a build is published or, having failed, withdrawn.
  CondVar settled_;
  std::map<std::string, std::shared_ptr<const std::vector<Rect>>> datasets_
      GUARDED_BY(mu_);
  std::map<std::string, Artifact> artifacts_ GUARDED_BY(mu_);
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
};

}  // namespace mwsj

#endif  // MWSJ_CORE_DATASET_CATALOG_H_
