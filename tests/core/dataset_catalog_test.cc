// DatasetCatalog: epochs, bundle assembly and identity keys, and the typed
// artifact cache that builds each key once (GetOrBuild).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/dataset_catalog.h"

namespace mwsj {
namespace {

std::vector<Rect> OneRect(double x) {
  return {Rect(x, 0.0, x + 1.0, 1.0)};
}

TEST(DatasetCatalogTest, PutBumpsEpochAndReplacesData) {
  DatasetCatalog catalog;
  EXPECT_EQ(catalog.GetRelationBundle({"roads"}).status().code(),
            StatusCode::kNotFound);

  EXPECT_EQ(catalog.PutDataset("roads", OneRect(1)), 0);
  StatusOr<DatasetCatalog::RelationBundle> first =
      catalog.GetRelationBundle({"roads"});
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().data_key, "data[5:roads@0]");
  EXPECT_EQ(first.value().relations->at(0).at(0).min_x(), 1.0);

  EXPECT_EQ(catalog.PutDataset("roads", OneRect(2)), 1);
  StatusOr<DatasetCatalog::RelationBundle> second =
      catalog.GetRelationBundle({"roads"});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().data_key, "data[5:roads@1]");
  ASSERT_EQ(second.value().relations->size(), 1u);
  EXPECT_EQ(second.value().relations->at(0).size(), 1u);
  EXPECT_EQ(second.value().relations->at(0).at(0).min_x(), 2.0);
}

TEST(DatasetCatalogTest, BundleKeyEmbedsEpochsAndCachesAssembly) {
  DatasetCatalog catalog;
  catalog.PutDataset("a", OneRect(1));
  catalog.PutDataset("b", OneRect(2));

  StatusOr<DatasetCatalog::RelationBundle> first =
      catalog.GetRelationBundle({"a", "b", "a"});
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.value().cached);
  EXPECT_EQ(first.value().data_key, "data[1:a@0,1:b@0,1:a@0]");
  ASSERT_EQ(first.value().relations->size(), 3u);
  EXPECT_EQ(first.value().relations->at(2).at(0).min_x(), 1.0);

  // Same names, same epochs: the assembled bundle itself is resident.
  StatusOr<DatasetCatalog::RelationBundle> second =
      catalog.GetRelationBundle({"a", "b", "a"});
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().cached);
  EXPECT_EQ(second.value().relations, first.value().relations);

  // An epoch bump changes the key, so the stale bundle is never served.
  catalog.PutDataset("b", OneRect(3));
  StatusOr<DatasetCatalog::RelationBundle> bumped =
      catalog.GetRelationBundle({"a", "b", "a"});
  ASSERT_TRUE(bumped.ok());
  EXPECT_FALSE(bumped.value().cached);
  EXPECT_EQ(bumped.value().data_key, "data[1:a@0,1:b@1,1:a@0]");
  EXPECT_EQ(bumped.value().relations->at(1).at(0).min_x(), 3.0);

  EXPECT_EQ(catalog.GetRelationBundle({"a", "missing"}).status().code(),
            StatusCode::kNotFound);
}

// GetOrBuild<int> over `catalog` with a build returning `value`.
DatasetCatalog::Resident<int> GetOrBuildInt(DatasetCatalog* catalog,
                                            const std::string& key,
                                            int value) {
  StatusOr<DatasetCatalog::Resident<int>> got =
      DatasetCatalog::GetOrBuild<int>(catalog, key, [value] { return value; });
  EXPECT_TRUE(got.ok()) << got.status().message();
  return got.ok() ? got.value() : DatasetCatalog::Resident<int>{};
}

TEST(DatasetCatalogTest, EpochBumpEvictsSupersededArtifacts) {
  DatasetCatalog catalog;
  catalog.PutDataset("a", OneRect(1));
  catalog.PutDataset("b", OneRect(2));

  // A resident bundle over both datasets, plus derived artifacts the way
  // the scheduler keys them (the base key embeds the bundle's data_key),
  // plus one keyed against "a" alone and one unrelated.
  StatusOr<DatasetCatalog::RelationBundle> bundle =
      catalog.GetRelationBundle({"a", "b"});
  ASSERT_TRUE(bundle.ok());
  const std::string derived_key =
      "q0|" + bundle.value().data_key + "|perm[0,1]|grid[4x4]";
  GetOrBuildInt(&catalog, derived_key, 1);
  GetOrBuildInt(&catalog, "q1|data[1:a@0]|grid", 2);
  GetOrBuildInt(&catalog, "unrelated", 3);
  EXPECT_EQ(catalog.evictions(), 0);

  // Bumping "b" drops the bundle and the derived artifact — both keys
  // reference b@0 — but keeps the a-only and unrelated entries. The
  // derived key now names a superseded epoch: it builds uncached.
  catalog.PutDataset("b", OneRect(3));
  EXPECT_EQ(catalog.evictions(), 2);
  const DatasetCatalog::Resident<int> rebuilt =
      GetOrBuildInt(&catalog, derived_key, 4);
  EXPECT_FALSE(rebuilt.cached);
  EXPECT_EQ(*rebuilt.value, 4);
  EXPECT_FALSE(GetOrBuildInt(&catalog, derived_key, 5).cached);
  EXPECT_TRUE(GetOrBuildInt(&catalog, "q1|data[1:a@0]|grid", 5).cached);
  EXPECT_TRUE(GetOrBuildInt(&catalog, "unrelated", 6).cached);

  // The next bundle request re-assembles against the new epoch.
  StatusOr<DatasetCatalog::RelationBundle> fresh =
      catalog.GetRelationBundle({"a", "b"});
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh.value().cached);
  EXPECT_EQ(fresh.value().data_key, "data[1:a@0,1:b@1]");

  // Bumping "a" now sweeps everything resident that referenced it: the
  // fresh bundle and the a-only artifact (the rebuilt derived value was
  // never stored).
  catalog.PutDataset("a", OneRect(4));
  EXPECT_EQ(catalog.evictions(), 4);
  EXPECT_FALSE(GetOrBuildInt(&catalog, "q1|data[1:a@0]|grid", 7).cached);
  EXPECT_EQ(*GetOrBuildInt(&catalog, "unrelated", 8).value, 3);
}

TEST(DatasetCatalogTest, ArtifactsAreTypedAndFirstWins) {
  DatasetCatalog catalog;
  int builds = 0;
  const auto build = [&builds](int value) {
    return [&builds, value] {
      ++builds;
      return value;
    };
  };
  StatusOr<DatasetCatalog::Resident<int>> first =
      DatasetCatalog::GetOrBuild<int>(&catalog, "k", build(7));
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.value().cached);
  EXPECT_EQ(*first.value().value, 7);
  EXPECT_EQ(catalog.misses(), 1);

  // The first build wins: a later caller gets the resident value and its
  // own build never runs.
  StatusOr<DatasetCatalog::Resident<int>> second =
      DatasetCatalog::GetOrBuild<int>(&catalog, "k", build(9));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().cached);
  EXPECT_EQ(second.value().value, first.value().value);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(catalog.hits(), 1);

  // Key discipline makes cross-type access a bug; the catalog refuses to
  // reinterpret rather than returning a corrupt value.
  StatusOr<DatasetCatalog::Resident<double>> wrong =
      DatasetCatalog::GetOrBuild<double>(&catalog, "k", [] { return 1.0; });
  EXPECT_EQ(wrong.status().code(), StatusCode::kInvalidArgument);

  // No catalog, or no key: the value is built and nothing is counted.
  EXPECT_FALSE(GetOrBuildInt(nullptr, "k", 5).cached);
  EXPECT_EQ(*GetOrBuildInt(&catalog, "", 6).value, 6);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(catalog.hits(), 1);
  EXPECT_EQ(catalog.misses(), 1);
}

TEST(DatasetCatalogTest, ConcurrentCallersBuildOnce) {
  DatasetCatalog catalog;
  constexpr int kThreads = 8;
  std::atomic<int> builds{0};
  std::atomic<bool> go{false};
  std::vector<DatasetCatalog::Resident<int>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      StatusOr<DatasetCatalog::Resident<int>> r =
          DatasetCatalog::GetOrBuild<int>(&catalog, "k", [&builds] {
            builds.fetch_add(1);
            // Hold the build open so the other callers arrive while it
            // runs.
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            return 7;
          });
      if (r.ok()) got[static_cast<size_t>(t)] = r.value();
    });
  }
  go.store(true);
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(builds.load(), 1);
  int cached = 0;
  for (const DatasetCatalog::Resident<int>& r : got) {
    ASSERT_NE(r.value, nullptr);
    EXPECT_EQ(r.value, got[0].value);
    cached += r.cached ? 1 : 0;
  }
  EXPECT_EQ(cached, kThreads - 1);
  EXPECT_EQ(catalog.misses(), 1);
  EXPECT_EQ(catalog.hits(), kThreads - 1);
}

TEST(DatasetCatalogTest, FailedBuildLeavesNothingResident) {
  DatasetCatalog catalog;
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  // The first build fails after a waiter has (most likely) queued behind
  // it; the waiter must then build the key itself.
  auto failing = std::async(std::launch::async, [&] {
    return DatasetCatalog::GetOrBuild<int>(
        &catalog, "k", [&]() -> StatusOr<int> {
          entered.store(true);
          while (!release.load()) std::this_thread::yield();
          return Status::Internal("build failed");
        });
  });
  while (!entered.load()) std::this_thread::yield();
  auto waiter = std::async(std::launch::async,
                           [&] { return GetOrBuildInt(&catalog, "k", 8); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  release.store(true);

  EXPECT_EQ(failing.get().status().code(), StatusCode::kInternal);
  const DatasetCatalog::Resident<int> retried = waiter.get();
  EXPECT_FALSE(retried.cached);
  EXPECT_EQ(*retried.value, 8);
  const DatasetCatalog::Resident<int> resident =
      GetOrBuildInt(&catalog, "k", 9);
  EXPECT_TRUE(resident.cached);
  EXPECT_EQ(*resident.value, 8);
  EXPECT_EQ(catalog.misses(), 2);
  EXPECT_EQ(catalog.hits(), 1);
}

TEST(DatasetCatalogTest, EvictionMidBuildReleasesWaiters) {
  DatasetCatalog catalog;
  catalog.PutDataset("a", OneRect(1));
  const std::string key = "q|data[1:a@0]|grid";
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  auto stale = std::async(std::launch::async, [&] {
    return DatasetCatalog::GetOrBuild<int>(&catalog, key, [&] {
      entered.store(true);
      while (!release.load()) std::this_thread::yield();
      return 1;
    });
  });
  while (!entered.load()) std::this_thread::yield();
  auto waiter = std::async(std::launch::async,
                           [&] { return GetOrBuildInt(&catalog, key, 2); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  // Replacing "a" evicts the in-flight key: the waiter must not stay
  // blocked on a build that will never be published.
  catalog.PutDataset("a", OneRect(3));
  const bool waiter_done = waiter.wait_for(std::chrono::seconds(30)) ==
                           std::future_status::ready;
  EXPECT_TRUE(waiter_done) << "waiter still blocked on an evicted build";
  release.store(true);
  const DatasetCatalog::Resident<int> rebuilt = waiter.get();
  EXPECT_FALSE(rebuilt.cached);
  EXPECT_EQ(*rebuilt.value, 2);

  // The evicted builder still returns its value, but never publishes it.
  StatusOr<DatasetCatalog::Resident<int>> evicted = stale.get();
  ASSERT_TRUE(evicted.ok());
  EXPECT_FALSE(evicted.value().cached);
  EXPECT_EQ(*evicted.value().value, 1);
  // The waiter's rebuild of the superseded key was not stored either: a
  // later lookup builds it again.
  const DatasetCatalog::Resident<int> again = GetOrBuildInt(&catalog, key, 4);
  EXPECT_FALSE(again.cached);
  EXPECT_EQ(*again.value, 4);
  // Keys of the new epoch build afresh.
  const DatasetCatalog::Resident<int> current =
      GetOrBuildInt(&catalog, "q|data[1:a@1]|grid", 5);
  EXPECT_FALSE(current.cached);
  EXPECT_EQ(*current.value, 5);
  // Nothing resident was evicted: only a flight was withdrawn.
  EXPECT_EQ(catalog.evictions(), 0);
}

// A job that resolved its bundle before a PutDataset builds its later
// artifacts under keys naming the superseded epoch. No new key reaches
// them, so they are built uncached and nothing stays resident.
TEST(DatasetCatalogTest, SupersededEpochKeysAreBuiltUncached) {
  DatasetCatalog catalog;
  catalog.PutDataset("a", OneRect(1));
  catalog.PutDataset("b", OneRect(2));
  StatusOr<DatasetCatalog::RelationBundle> bundle =
      catalog.GetRelationBundle({"a", "b"});
  ASSERT_TRUE(bundle.ok());
  const std::string stale_key = "q|" + bundle.value().data_key + "|grid";
  EXPECT_EQ(stale_key, "q|data[1:a@0,1:b@0]|grid");

  EXPECT_EQ(catalog.PutDataset("a", OneRect(3)), 1);
  EXPECT_EQ(catalog.evictions(), 1);  // The a@0 bundle.
  const int64_t misses = catalog.misses();
  const DatasetCatalog::Resident<int> first =
      GetOrBuildInt(&catalog, stale_key, 7);
  EXPECT_FALSE(first.cached);
  EXPECT_EQ(*first.value, 7);
  const DatasetCatalog::Resident<int> second =
      GetOrBuildInt(&catalog, stale_key, 8);
  EXPECT_FALSE(second.cached) << "a superseded-epoch value stayed resident";
  EXPECT_EQ(*second.value, 8);
  EXPECT_EQ(catalog.misses(), misses + 2);
  EXPECT_EQ(catalog.hits(), 0);

  // Keys naming only current epochs are cached as before.
  const std::string current_key = "q|data[1:a@1,1:b@0]|grid";
  EXPECT_FALSE(GetOrBuildInt(&catalog, current_key, 9).cached);
  EXPECT_TRUE(GetOrBuildInt(&catalog, current_key, 10).cached);

  // Bumping "b" finds only the current-epoch artifact to evict.
  catalog.PutDataset("b", OneRect(4));
  EXPECT_EQ(catalog.evictions(), 2);
}

}  // namespace
}  // namespace mwsj
