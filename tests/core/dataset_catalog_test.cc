// DatasetCatalog: register-once datasets, bundle assembly and identity
// keys, and the typed artifact cache that builds each key once
// (GetOrBuild).

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

// GetOrBuild<int> over `catalog` with a build returning `value`.
DatasetCatalog::Resident<int> GetOrBuildInt(DatasetCatalog* catalog,
                                            const std::string& key,
                                            int value) {
  StatusOr<DatasetCatalog::Resident<int>> got =
      DatasetCatalog::GetOrBuild<int>(catalog, key, [value] { return value; });
  EXPECT_TRUE(got.ok()) << got.status().message();
  return got.ok() ? got.value() : DatasetCatalog::Resident<int>{};
}

TEST(DatasetCatalogTest, PutRegistersANameOnce) {
  DatasetCatalog catalog;
  EXPECT_EQ(catalog.GetRelationBundle({"roads"}).status().code(),
            StatusCode::kNotFound);

  EXPECT_TRUE(catalog.PutDataset("roads", OneRect(1)).ok());
  StatusOr<DatasetCatalog::RelationBundle> first =
      catalog.GetRelationBundle({"roads"});
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().data_key, "data[5:roads]");
  EXPECT_EQ(first.value().relations->at(0).at(0).min_x(), 1.0);
  const std::string derived_key = "q|" + first.value().data_key + "|grid";
  EXPECT_FALSE(GetOrBuildInt(&catalog, derived_key, 1).cached);

  // A registered name is never replaced: the re-put is refused, and the
  // data, the bundle and every artifact derived from it stay resident.
  EXPECT_EQ(catalog.PutDataset("roads", OneRect(2)).code(),
            StatusCode::kAlreadyExists);
  const auto replacement = std::make_shared<const std::vector<Rect>>(
      OneRect(3));
  EXPECT_EQ(catalog.PutDataset("roads", replacement).code(),
            StatusCode::kAlreadyExists);
  StatusOr<DatasetCatalog::RelationBundle> second =
      catalog.GetRelationBundle({"roads"});
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().cached);
  EXPECT_EQ(second.value().data_key, "data[5:roads]");
  EXPECT_EQ(second.value().relations, first.value().relations);
  ASSERT_EQ(second.value().relations->size(), 1u);
  ASSERT_EQ(second.value().relations->at(0).size(), 1u);
  EXPECT_EQ(second.value().relations->at(0).at(0).min_x(), 1.0);
  const DatasetCatalog::Resident<int> derived =
      GetOrBuildInt(&catalog, derived_key, 4);
  EXPECT_TRUE(derived.cached);
  EXPECT_EQ(*derived.value, 1);
  EXPECT_EQ(catalog.hits(), 2);
  EXPECT_EQ(catalog.misses(), 2);
}

TEST(DatasetCatalogTest, BundleKeyEmbedsNamesAndCachesAssembly) {
  DatasetCatalog catalog;
  catalog.PutDataset("a", OneRect(1));
  catalog.PutDataset("b", OneRect(2));

  StatusOr<DatasetCatalog::RelationBundle> first =
      catalog.GetRelationBundle({"a", "b", "a"});
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.value().cached);
  EXPECT_EQ(first.value().data_key, "data[1:a,1:b,1:a]");
  ASSERT_EQ(first.value().relations->size(), 3u);
  EXPECT_EQ(first.value().relations->at(2).at(0).min_x(), 1.0);

  // Same names: the assembled bundle itself is resident.
  StatusOr<DatasetCatalog::RelationBundle> second =
      catalog.GetRelationBundle({"a", "b", "a"});
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().cached);
  EXPECT_EQ(second.value().relations, first.value().relations);

  // Another order is another positional binding, so another bundle.
  StatusOr<DatasetCatalog::RelationBundle> swapped =
      catalog.GetRelationBundle({"b", "a", "a"});
  ASSERT_TRUE(swapped.ok());
  EXPECT_FALSE(swapped.value().cached);
  EXPECT_EQ(swapped.value().data_key, "data[1:b,1:a,1:a]");
  EXPECT_EQ(swapped.value().relations->at(0).at(0).min_x(), 2.0);

  EXPECT_EQ(catalog.GetRelationBundle({"a", "missing"}).status().code(),
            StatusCode::kNotFound);
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

}  // namespace
}  // namespace mwsj
