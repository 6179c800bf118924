// The serving catalog: cache/snapshot/rebuild resolution, counters, LRU
// eviction, a served sweep scored bit-identically to RunConfigsParallel, and
// thread safety of the serve path (run under tsan via the `catalog` label).
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <filesystem>

#include <unistd.h>

#include <gtest/gtest.h>

#include "src/catalog/serving_cache.h"
#include "src/catalog/statistics_catalog.h"
#include "src/data/dataset.h"
#include "src/data/domain.h"
#include "src/est/estimator_factory.h"
#include "src/eval/parallel_experiment.h"
#include "src/query/range_query.h"
#include "src/util/random.h"

namespace selest {
namespace {

// A per-test snapshot directory, cleared up front so state persisted by a
// previous run (snapshots survive on purpose) cannot skew the counters.
std::string FreshDir(const std::string& name) {
  // Suffixed with the pid: each gtest case runs as its own ctest process,
  // and concurrent cases of the same binary must not share a directory.
  const std::string dir =
      testing::TempDir() + name + "_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

std::vector<double> MakeSample(size_t n, const Domain& domain,
                               uint64_t seed) {
  Rng rng(seed);
  std::vector<double> sample;
  sample.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    sample.push_back(
        domain.Quantize(domain.lo + rng.NextDouble() * domain.width()));
  }
  return sample;
}

EstimatorConfig ConfigWithBins(int bins) {
  EstimatorConfig config;
  config.kind = EstimatorKind::kEquiWidth;
  config.smoothing = SmoothingRule::kFixed;
  config.fixed_smoothing = bins;
  return config;
}

TEST(CatalogKeyTest, FingerprintSeparatesConfigs) {
  EstimatorConfig a = ConfigWithBins(16);
  EstimatorConfig b = ConfigWithBins(17);
  EXPECT_NE(FingerprintConfig(a), FingerprintConfig(b));
  EXPECT_EQ(FingerprintConfig(a), FingerprintConfig(a));
  EstimatorConfig kernel;
  kernel.kind = EstimatorKind::kKernel;
  EstimatorConfig kernel_boundary = kernel;
  kernel_boundary.boundary = BoundaryPolicy::kNone;
  EXPECT_NE(FingerprintConfig(kernel), FingerprintConfig(kernel_boundary));
}

TEST(CatalogServingTest, MemoryOnlyCatalogServesAndCounts) {
  const Domain domain = BitDomain(12);
  const std::vector<double> sample = MakeSample(512, domain, 1);
  Catalog catalog;  // no snapshot directory: memory-only
  EXPECT_EQ(catalog.store(), nullptr);
  auto key = catalog.RegisterColumn("lineitem", "price", domain, sample,
                                    ConfigWithBins(32));
  ASSERT_TRUE(key.ok());

  const RangeQuery query{100.0, 900.0};
  auto first = catalog.Estimate(key.value(), query);
  ASSERT_TRUE(first.ok());
  auto second = catalog.Estimate(key.value(), query);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value(), second.value());

  const CatalogServeStats stats = catalog.serve_stats();
  EXPECT_EQ(stats.estimates, 2u);
  EXPECT_EQ(stats.rebuilds, 1u);  // built once, served from cache after
  EXPECT_EQ(stats.writebacks, 0u);
  EXPECT_EQ(stats.snapshot_loads, 0u);
  EXPECT_EQ(catalog.cache_stats().hits, 1u);
  EXPECT_EQ(catalog.cache_stats().misses, 1u);
}

TEST(CatalogServingTest, ServesByRelationAttributeDefaultKey) {
  const Domain domain = BitDomain(10);
  const std::vector<double> sample = MakeSample(256, domain, 2);
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .RegisterColumn("part", "size", domain, sample,
                                  ConfigWithBins(8))
                  .ok());
  EXPECT_TRUE(catalog.Estimate("part", "size", RangeQuery{0.0, 512.0}).ok());
  auto missing = catalog.Estimate("part", "weight", RangeQuery{0.0, 1.0});
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(CatalogServingTest, UnregisteredKeyIsNotFound) {
  Catalog catalog;
  CatalogKey key{"ghost", "column", 42};
  EXPECT_EQ(catalog.GetEstimator(key).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(catalog.Estimate(key, RangeQuery{0.0, 1.0}).status().code(),
            StatusCode::kNotFound);
}

TEST(CatalogServingTest, EmptyNamesAreInvalidArgument) {
  const Domain domain = BitDomain(8);
  const std::vector<double> sample = MakeSample(64, domain, 3);
  Catalog catalog;
  EXPECT_EQ(catalog.RegisterColumn("", "x", domain, sample, {})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(catalog.RegisterColumn("t", "", domain, sample, {})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(CatalogServingTest, SecondCatalogServesFromSnapshotsNotRebuilds) {
  const std::string dir = FreshDir("selest_warm_catalog");
  const Domain domain = BitDomain(12);
  const std::vector<double> sample = MakeSample(512, domain, 4);
  std::vector<EstimatorConfig> configs{ConfigWithBins(16), ConfigWithBins(64)};
  EstimatorConfig kernel;
  kernel.kind = EstimatorKind::kKernel;
  configs.push_back(kernel);

  std::vector<CatalogKey> keys;
  std::vector<double> cold_estimates;
  {
    Catalog cold(CatalogOptions{dir});
    for (const EstimatorConfig& config : configs) {
      auto key = cold.RegisterColumn("orders", "total", domain, sample, config);
      ASSERT_TRUE(key.ok());
      keys.push_back(key.value());
    }
    ASSERT_TRUE(cold.WarmAll().ok());
    EXPECT_EQ(cold.serve_stats().rebuilds, configs.size());
    EXPECT_EQ(cold.serve_stats().writebacks, configs.size());
    for (const CatalogKey& key : keys) {
      auto estimate = cold.Estimate(key, RangeQuery{50.0, 1000.0});
      ASSERT_TRUE(estimate.ok());
      cold_estimates.push_back(estimate.value());
    }
  }

  Catalog warm(CatalogOptions{dir});
  for (const EstimatorConfig& config : configs) {
    ASSERT_TRUE(
        warm.RegisterColumn("orders", "total", domain, sample, config).ok());
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    auto estimate = warm.Estimate(keys[i], RangeQuery{50.0, 1000.0});
    ASSERT_TRUE(estimate.ok());
    // Snapshot-served estimates are bit-identical to the cold build's.
    EXPECT_EQ(estimate.value(), cold_estimates[i]) << i;
  }
  EXPECT_EQ(warm.serve_stats().snapshot_loads, keys.size());
  EXPECT_EQ(warm.serve_stats().rebuilds, 0u);
}

TEST(CatalogServingTest, LruEvictsBeyondCapacity) {
  const Domain domain = BitDomain(10);
  const std::vector<double> sample = MakeSample(256, domain, 5);
  CatalogOptions options;
  options.cache_capacity = 4;
  options.cache_shards = 8;  // clamped so 4 entries can actually evict
  Catalog catalog(options);
  std::vector<CatalogKey> keys;
  for (int bins = 8; bins < 8 + 12; ++bins) {
    auto key = catalog.RegisterColumn("t", "x", domain, sample,
                                      ConfigWithBins(bins));
    ASSERT_TRUE(key.ok());
    keys.push_back(key.value());
  }
  for (const CatalogKey& key : keys) {
    ASSERT_TRUE(catalog.Estimate(key, RangeQuery{0.0, 100.0}).ok());
  }
  const CacheStats stats = catalog.cache_stats();
  EXPECT_LE(stats.resident_entries, 4u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(stats.resident_entries + stats.evictions, keys.size());
  // Evicted keys are still servable (rebuilt or re-read), just slower.
  ASSERT_TRUE(catalog.Estimate(keys.front(), RangeQuery{0.0, 100.0}).ok());
}

TEST(CatalogServingTest, ServingCacheTracksBytesAndReplacement) {
  const Domain domain = BitDomain(10);
  const std::vector<double> sample = MakeSample(128, domain, 6);
  auto build = [&](int bins) -> std::shared_ptr<const SelectivityEstimator> {
    auto estimator = BuildEstimator(sample, domain, ConfigWithBins(bins));
    EXPECT_TRUE(estimator.ok());
    return std::shared_ptr<const SelectivityEstimator>(
        std::move(estimator).value());
  };
  ServingCache cache(/*capacity=*/2, /*num_shards=*/1);
  const CatalogKey a{"t", "a", 1};
  const CatalogKey b{"t", "b", 2};
  auto ea = build(8);
  cache.Insert(a, ea);
  EXPECT_EQ(cache.stats().resident_bytes, ea->StorageBytes());
  auto replacement = build(16);
  cache.Insert(a, replacement);  // replace in place, not a second entry
  EXPECT_EQ(cache.stats().resident_entries, 1u);
  EXPECT_EQ(cache.stats().resident_bytes, replacement->StorageBytes());
  cache.Insert(b, build(8));
  EXPECT_EQ(cache.stats().resident_entries, 2u);
  cache.Erase(a);
  EXPECT_EQ(cache.stats().resident_entries, 1u);
  EXPECT_EQ(cache.Lookup(a), nullptr);
  EXPECT_NE(cache.Lookup(b), nullptr);
}

// One served sweep cell: registers `config` for the sweep column, resolves
// it through the catalog (cache → snapshot → rebuild) and scores it.
StatusOr<ErrorReport> ServeAndScore(Catalog& catalog,
                                    const ExperimentSetup& setup,
                                    const EstimatorConfig& config) {
  SELEST_ASSIGN_OR_RETURN(
      const CatalogKey key,
      catalog.RegisterColumn("sweep", "v", setup.domain(), setup.sample,
                             config));
  SELEST_ASSIGN_OR_RETURN(
      const std::shared_ptr<const SelectivityEstimator> estimator,
      catalog.GetEstimator(key));
  return EvaluateParallel(*estimator, setup.queries, GroundTruth(*setup.data));
}

TEST(CatalogServingTest, ServedSweepMatchesParallelSweepBitForBit) {
  const Domain domain = BitDomain(12);
  Rng rng(2026);
  std::vector<double> values;
  for (size_t i = 0; i < 20000; ++i) {
    values.push_back(domain.Quantize(rng.NextDouble() * domain.width()));
  }
  const Dataset data("served-sweep", domain, std::move(values));
  ProtocolConfig protocol;
  protocol.sample_size = 500;
  protocol.num_queries = 200;
  const ExperimentSetup setup = MakeSetup(data, protocol);

  EstimatorConfig ewh;
  EstimatorConfig kernel;
  kernel.kind = EstimatorKind::kKernel;
  EstimatorConfig ash;
  ash.kind = EstimatorKind::kAverageShifted;
  const std::vector<EstimatorConfig> configs{ewh, kernel, ash};

  const auto direct = RunConfigsParallel(setup, configs);
  ASSERT_EQ(direct.size(), configs.size());

  const std::string dir = FreshDir("selest_served_sweep");
  Catalog catalog(CatalogOptions{dir});
  // Twice through the catalog: the first pass serves cold rebuilds, the
  // second serves cache hits (and disk snapshots through a fresh catalog
  // below) — all three paths must agree bit for bit.
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < configs.size(); ++i) {
      const auto served = ServeAndScore(catalog, setup, configs[i]);
      ASSERT_TRUE(served.ok());
      ASSERT_TRUE(direct[i].ok());
      EXPECT_EQ(served.value().mean_relative_error,
                direct[i].value().mean_relative_error)
          << "pass " << pass << " config " << i;
      EXPECT_EQ(served.value().mean_absolute_error,
                direct[i].value().mean_absolute_error);
      EXPECT_EQ(served.value().max_relative_error,
                direct[i].value().max_relative_error);
    }
  }
  EXPECT_EQ(catalog.serve_stats().rebuilds, configs.size());

  Catalog snapshot_served(CatalogOptions{dir});
  for (size_t i = 0; i < configs.size(); ++i) {
    const auto from_disk = ServeAndScore(snapshot_served, setup, configs[i]);
    ASSERT_TRUE(from_disk.ok());
    EXPECT_EQ(from_disk.value().mean_relative_error,
              direct[i].value().mean_relative_error);
  }
  EXPECT_EQ(snapshot_served.serve_stats().snapshot_loads, configs.size());
  EXPECT_EQ(snapshot_served.serve_stats().rebuilds, 0u);
}

// The ISSUE's concurrency scenario: 8 threads hammer a 4-entry LRU with a
// mix of hits, misses and evictions. Run under tsan via the `catalog`
// label; correctness here is "no data race, coherent counters, every
// estimate answered".
TEST(CatalogServingTest, ConcurrentMixedHitMissEvictIsSafe) {
  const Domain domain = BitDomain(10);
  const std::vector<double> sample = MakeSample(256, domain, 7);
  CatalogOptions options;
  options.cache_capacity = 4;
  Catalog catalog(options);

  constexpr size_t kColumns = 8;
  std::vector<CatalogKey> keys;
  for (size_t c = 0; c < kColumns; ++c) {
    auto key = catalog.RegisterColumn(
        "rel" + std::to_string(c), "x", domain, sample,
        ConfigWithBins(static_cast<int>(8 + c)));
    ASSERT_TRUE(key.ok());
    keys.push_back(key.value());
  }

  constexpr size_t kThreads = 8;
  constexpr size_t kIterations = 200;
  std::atomic<size_t> failures{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = 0; i < kIterations; ++i) {
        // Each thread walks the keys at a different stride, so at any
        // moment the 8 live keys contend for the 4 cache slots.
        const CatalogKey& key = keys[(t * 3 + i) % kColumns];
        auto estimate = catalog.Estimate(key, RangeQuery{0.0, 768.0});
        if (!estimate.ok() || !(estimate.value() >= 0.0)) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  EXPECT_EQ(failures.load(), 0u);
  const CatalogServeStats serve = catalog.serve_stats();
  EXPECT_EQ(serve.estimates, kThreads * kIterations);
  const CacheStats cache = catalog.cache_stats();
  EXPECT_LE(cache.resident_entries, 4u);
  EXPECT_GT(cache.evictions, 0u);
  // Every lookup either hit or missed; every miss ended in an insertion.
  EXPECT_EQ(cache.hits + cache.misses, kThreads * kIterations);
  EXPECT_EQ(cache.insertions, cache.misses);
  // Concurrent misses on one key may both insert (the second replaces in
  // place), so insertions can exceed entries-plus-evictions — never trail.
  EXPECT_LE(cache.resident_entries + cache.evictions, cache.insertions);
}

TEST(CatalogServingTest, ConcurrentWarmAndServeWithSnapshots) {
  const std::string dir = FreshDir("selest_concurrent_store");
  const Domain domain = BitDomain(10);
  const std::vector<double> sample = MakeSample(256, domain, 8);
  CatalogOptions options;
  options.snapshot_directory = dir;
  options.cache_capacity = 4;
  Catalog catalog(options);

  std::vector<CatalogKey> keys;
  for (size_t c = 0; c < 6; ++c) {
    auto key = catalog.RegisterColumn("r", "c" + std::to_string(c), domain,
                                      sample, ConfigWithBins(10));
    ASSERT_TRUE(key.ok());
    keys.push_back(key.value());
  }

  std::atomic<size_t> failures{0};
  std::vector<std::thread> workers;
  for (size_t t = 0; t < 8; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = 0; i < 50; ++i) {
        const CatalogKey& key = keys[(t + i) % keys.size()];
        if (t % 4 == 0 && !catalog.Warm(key).ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        if (!catalog.Estimate(key, RangeQuery{0.0, 512.0}).ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(failures.load(), 0u);
  // Every registration ended up persisted.
  for (const CatalogKey& key : keys) {
    EXPECT_TRUE(catalog.store()->Contains(key));
  }
}

}  // namespace
}  // namespace selest
