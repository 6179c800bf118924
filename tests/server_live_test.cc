// The live statistics server, deterministic paths: registration serving
// bit-identical to a direct build (also across a hundred columns whose
// names differ only in length, prefix, suffix or an embedded NUL, before
// and after re-registration), ingest + refresh semantics for the
// merge and rebuild paths, the ingest-volume and TTL staleness policies,
// snapshot write-back, file ingest, a live sweep scored bit-identically to
// RunConfigsParallel, and the memory bound of sustained ingest.
#include <condition_variable>
#include <cstddef>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <malloc.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "src/catalog/live_server.h"
#include "src/data/column_source.h"
#include "src/data/dataset.h"
#include "src/data/io.h"
#include "src/eval/parallel_experiment.h"
#include "src/exec/thread_pool.h"
#include "src/query/workload.h"
#include "src/util/random.h"

// ASan and TSan replace the allocator, so glibc's counters miss their
// allocations; their runtimes export a counter of their own.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SELEST_SANITIZER_ALLOCATOR 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SELEST_SANITIZER_ALLOCATOR 1
#endif
#endif
#ifndef SELEST_SANITIZER_ALLOCATOR
#define SELEST_SANITIZER_ALLOCATOR 0
#endif
#if SELEST_SANITIZER_ALLOCATOR
// Declared here because not every toolchain installs
// <sanitizer/allocator_interface.h>.
extern "C" size_t __sanitizer_get_current_allocated_bytes();
#endif

namespace selest {
namespace {

const Domain kDomain = ContinuousDomain(0.0, 1000.0);

std::string FreshDir(const std::string& name) {
  // Suffixed with the pid: each gtest case runs as its own ctest process,
  // and concurrent cases of the same binary must not share a directory.
  const std::string dir =
      testing::TempDir() + name + "_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

std::vector<double> MakeRows(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(kDomain.lo + rng.NextDouble() * kDomain.width());
  }
  return rows;
}

EstimatorConfig ConfigWithBins(EstimatorKind kind, int bins) {
  EstimatorConfig config;
  config.kind = kind;
  config.smoothing = SmoothingRule::kFixed;
  config.fixed_smoothing = bins;
  return config;
}

// Inline refreshes: every policy trigger completes before the call that
// caused it returns, which is what these deterministic tests rely on.
LiveServerOptions InlineOptions() {
  LiveServerOptions options;
  options.background_refresh = false;
  return options;
}

TEST(LiveServerTest, RegistrationServesBitIdenticalToDirectBuild) {
  LiveStatisticsServer server(InlineOptions());
  const std::vector<double> rows = MakeRows(500, 1);
  const EstimatorConfig config =
      ConfigWithBins(EstimatorKind::kEquiWidth, 32);
  ASSERT_TRUE(server.RegisterColumn("t", "x", kDomain, config, rows).ok());
  EXPECT_TRUE(server.HasColumn("t", "x"));
  EXPECT_EQ(server.num_columns(), 1u);

  auto direct = BuildEstimator(rows, kDomain, config);
  ASSERT_TRUE(direct.ok());
  for (double a = 0.0; a < 900.0; a += 97.0) {
    const RangeQuery query{a, a + 120.0};
    auto served = server.Estimate("t", "x", query);
    ASSERT_TRUE(served.ok());
    EXPECT_EQ(served.value(), direct.value()->EstimateSelectivity(query));
  }
  auto stats = server.ColumnStats("t", "x");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().generation, 1u);
  EXPECT_GT(stats.value().serves, 0u);
  EXPECT_EQ(stats.value().refreshes, 0u);
}

// NaN and inverted bounds answer exactly 0 from every estimator kind, from
// a direct build and through EstimateDetailed, which hands a client's bounds
// to the served estimator as they are.
TEST(LiveServerTest, NanAndInvertedBoundsAnswerZeroForEveryKind) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double mid = 0.5 * (kDomain.lo + kDomain.hi);
  const RangeQuery bad[] = {
      {nan, mid},         {kDomain.lo, nan}, {nan, nan},
      {nan, inf},         {-inf, nan},       {mid + 100.0, mid},
      {kDomain.hi, kDomain.lo}, {inf, -inf},
  };
  const std::vector<double> rows = MakeRows(2000, 21);
  LiveStatisticsServer server(InlineOptions());
  for (const EstimatorKind kind :
       {EstimatorKind::kSampling, EstimatorKind::kUniform,
        EstimatorKind::kEquiWidth, EstimatorKind::kEquiDepth,
        EstimatorKind::kMaxDiff, EstimatorKind::kAverageShifted,
        EstimatorKind::kKernel, EstimatorKind::kHybrid,
        EstimatorKind::kVOptimal, EstimatorKind::kAdaptiveKernel,
        EstimatorKind::kWavelet, EstimatorKind::kFeedback,
        EstimatorKind::kReconstructed, EstimatorKind::kOnlineLearning}) {
    EstimatorConfig config;
    config.kind = kind;
    const std::string attribute = EstimatorKindName(kind);
    auto direct = BuildEstimator(rows, kDomain, config);
    ASSERT_TRUE(direct.ok()) << attribute;
    ASSERT_TRUE(
        server.RegisterColumn("t", attribute, kDomain, config, rows).ok());
    for (const RangeQuery& query : bad) {
      EXPECT_EQ(direct.value()->EstimateSelectivity(query), 0.0)
          << attribute << " [" << query.a << ", " << query.b << "]";
      auto served = server.EstimateDetailed("t", attribute, query);
      ASSERT_TRUE(served.ok()) << attribute;
      EXPECT_EQ(served->value, 0.0)
          << attribute << " served [" << query.a << ", " << query.b << "]";
    }
  }
}

TEST(LiveServerTest, UnknownColumnAndBadRegistrationAreErrors) {
  LiveStatisticsServer server(InlineOptions());
  EXPECT_EQ(server.Estimate("t", "x", {0.0, 1.0}).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(server.Ingest("t", "x", MakeRows(4, 2)).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(server.Refresh("t", "x").code(), StatusCode::kNotFound);
  EXPECT_EQ(server
                .RegisterColumn("", "x", kDomain,
                                ConfigWithBins(EstimatorKind::kEquiWidth, 8),
                                MakeRows(16, 3))
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(server.HasColumn("t", "x"));

  // A config that cannot build returns the build error and leaves the
  // column registered before it serving its generation.
  const std::vector<double> rows = MakeRows(64, 22);
  ASSERT_TRUE(server
                  .RegisterColumn("t", "x", kDomain,
                                  ConfigWithBins(EstimatorKind::kEquiWidth, 16),
                                  rows)
                  .ok());
  EstimatorConfig bad = ConfigWithBins(EstimatorKind::kEquiWidth, 16);
  bad.fixed_smoothing = 1.0e9;  // beyond kMaxNumBins: the build fails
  const Status build_error = BuildEstimator(rows, kDomain, bad).status();
  ASSERT_FALSE(build_error.ok());
  EXPECT_EQ(server.RegisterColumn("t", "x", kDomain, bad, rows).code(),
            build_error.code());
  auto generation = server.CurrentGeneration("t", "x");
  ASSERT_TRUE(generation.ok());
  EXPECT_EQ(generation.value()->number, 1u);
  EXPECT_TRUE(server.Estimate("t", "x", {100.0, 400.0}).ok());
}

// Column names the registry must keep apart: every length from 1 to 20
// bytes (7 against 8 among them), the same bytes at different lengths,
// names that share an 8-byte prefix or suffix, a byte moved across the
// relation/attribute split, embedded NULs, and names like the end-to-end
// benchmark's.
std::vector<std::pair<std::string, std::string>> RegistryNames() {
  std::vector<std::pair<std::string, std::string>> names;
  for (size_t length = 1; length <= 20; ++length) {
    names.emplace_back(std::string(length, 'r'), "x");
    names.emplace_back("t", std::string(length, 'a'));
  }
  names.emplace_back("relation", "a");
  names.emplace_back("s", "_suffix8");
  for (char d = '0'; d <= '9'; ++d) {
    names.emplace_back(std::string("relation") + d, "a");
    names.emplace_back("s", d + std::string("_suffix8"));
    names.emplace_back(d + std::string("_long_shared_suffix"), "y");
  }
  for (const std::string& nul :
       {std::string("\0", 1), std::string("\0\0", 2), std::string("nul"),
        std::string("nul\0", 4), std::string("nul\0\0", 5),
        std::string("nul\0a", 5), std::string("nul\0b", 5),
        std::string("nul\0\0\0\0\0\0", 9)}) {
    names.emplace_back(nul, "z");
  }
  names.emplace_back("ab", "c");
  names.emplace_back("a", "bc");
  names.emplace_back("rel", "attr8byte");
  names.emplace_back("relattr8", "byte");
  for (const char* relation : {"u_20", "n_20", "rr2_22", "iw"}) {
    for (const char* attribute : {"a00", "a01", "a63"}) {
      names.emplace_back(relation, attribute);
    }
  }
  return names;
}

TEST(LiveServerTest, RegistryServesEachOfManyColumnNames) {
  const std::vector<std::pair<std::string, std::string>> names =
      RegistryNames();
  const std::set<std::pair<std::string, std::string>> registered(
      names.begin(), names.end());
  ASSERT_EQ(registered.size(), names.size());
  ASSERT_GE(names.size(), 90u);

  // Lookups that must miss: proper prefixes of each name, each name with
  // a NUL appended, the two names swapped, an empty relation.
  std::vector<std::pair<std::string, std::string>> missing;
  for (const auto& [relation, attribute] : names) {
    std::vector<std::pair<std::string, std::string>> candidates = {
        {relation + '\0', attribute},
        {relation, attribute + '\0'},
        {attribute, relation},
        {"", attribute}};
    for (size_t k = 1; k < relation.size(); ++k) {
      candidates.emplace_back(relation.substr(0, k), attribute);
    }
    for (size_t k = 1; k < attribute.size(); ++k) {
      candidates.emplace_back(relation, attribute.substr(0, k));
    }
    for (auto& candidate : candidates) {
      if (!registered.contains(candidate)) {
        missing.push_back(std::move(candidate));
      }
    }
  }
  ASSERT_GE(missing.size(), 500u);

  const EstimatorConfig config =
      ConfigWithBins(EstimatorKind::kEquiWidth, 16);
  const std::vector<RangeQuery> queries = {{0.0, 100.0},   {50.0, 333.0},
                                           {250.0, 700.0}, {600.0, 950.0},
                                           {123.0, 456.0}, {480.0, 520.0}};
  LiveStatisticsServer server(InlineOptions());
  // Two rounds: every column registered, then every column re-registered
  // in reverse order with a new sample.
  for (uint64_t round = 0; round < 2; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    std::vector<std::vector<double>> expected(names.size());
    for (size_t n = 0; n < names.size(); ++n) {
      const size_t c = round == 0 ? n : names.size() - 1 - n;
      const std::vector<double> rows =
          MakeRows(40 + c, 1000 * (round + 1) + c);
      auto direct = BuildEstimator(rows, kDomain, config);
      ASSERT_TRUE(direct.ok());
      for (const RangeQuery& query : queries) {
        expected[c].push_back(direct.value()->EstimateSelectivity(query));
      }
      ASSERT_TRUE(server
                      .RegisterColumn(names[c].first, names[c].second,
                                      kDomain, config, rows)
                      .ok());
    }
    // No two columns answer alike, so a lookup that lands on the wrong
    // column cannot pass.
    ASSERT_EQ(std::set<std::vector<double>>(expected.begin(), expected.end())
                  .size(),
              names.size());
    EXPECT_EQ(server.num_columns(), names.size());

    for (size_t c = 0; c < names.size(); ++c) {
      SCOPED_TRACE("column " + std::to_string(c));
      const auto& [relation, attribute] = names[c];
      EXPECT_TRUE(server.HasColumn(relation, attribute));
      for (size_t q = 0; q < queries.size(); ++q) {
        auto served = server.EstimateDetailed(relation, attribute, queries[q]);
        ASSERT_TRUE(served.ok()) << served.status().ToString();
        EXPECT_EQ(served.value().value, expected[c][q]);
        EXPECT_EQ(served.value().generation, 1u);
      }
      // The write paths reach the column through its owner.
      auto owned = server.CurrentEstimator(relation, attribute);
      ASSERT_TRUE(owned.ok());
      EXPECT_EQ(owned.value()->EstimateSelectivity(queries[0]), expected[c][0]);
    }
    for (const auto& [relation, attribute] : missing) {
      EXPECT_EQ(server.EstimateDetailed(relation, attribute, queries[0])
                    .status()
                    .code(),
                StatusCode::kNotFound);
      EXPECT_FALSE(server.HasColumn(relation, attribute));
    }
  }
}

TEST(LiveServerTest, MergePathRefreshMatchesFullRebuild) {
  LiveStatisticsServer server(InlineOptions());
  const std::vector<double> initial = MakeRows(600, 4);
  const std::vector<double> extra = MakeRows(400, 5);
  const EstimatorConfig config =
      ConfigWithBins(EstimatorKind::kEquiWidth, 24);
  ASSERT_TRUE(
      server.RegisterColumn("t", "x", kDomain, config, initial).ok());
  ASSERT_TRUE(server.Ingest("t", "x", extra).ok());
  ASSERT_TRUE(server.Refresh("t", "x").ok());

  // Equi-width folds are exact: the refreshed generation answers like a
  // from-scratch build over initial ∪ extra.
  std::vector<double> all = initial;
  all.insert(all.end(), extra.begin(), extra.end());
  auto whole = BuildEstimator(all, kDomain, config);
  ASSERT_TRUE(whole.ok());
  for (double a = 0.0; a < 900.0; a += 83.0) {
    const RangeQuery query{a, a + 140.0};
    auto served = server.Estimate("t", "x", query);
    ASSERT_TRUE(served.ok());
    EXPECT_EQ(served.value(), whole.value()->EstimateSelectivity(query));
  }

  auto stats = server.ColumnStats("t", "x");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().generation, 2u);
  EXPECT_EQ(stats.value().ingested_rows, extra.size());
  EXPECT_EQ(stats.value().refreshes, 1u);
  EXPECT_EQ(stats.value().merge_refreshes, 1u);
  EXPECT_EQ(stats.value().rebuild_refreshes, 0u);
  auto generation = server.CurrentGeneration("t", "x");
  ASSERT_TRUE(generation.ok());
  EXPECT_TRUE(generation.value()->merged);
  EXPECT_EQ(generation.value()->rows_at_build, initial.size() + extra.size());
}

TEST(LiveServerTest, RebuildPathServesReservoirContents) {
  // kMaxDiff does not merge; refreshes rebuild from the reservoir. With a
  // reservoir large enough to hold every row, the rebuild sees exactly
  // initial ∪ extra and answers like a from-scratch build over them.
  LiveServerOptions options = InlineOptions();
  options.reservoir_capacity = 4096;
  LiveStatisticsServer server(std::move(options));
  const std::vector<double> initial = MakeRows(500, 6);
  const std::vector<double> extra = MakeRows(300, 7);
  const EstimatorConfig config = ConfigWithBins(EstimatorKind::kMaxDiff, 16);
  ASSERT_TRUE(
      server.RegisterColumn("t", "x", kDomain, config, initial).ok());
  ASSERT_TRUE(server.Ingest("t", "x", extra).ok());
  ASSERT_TRUE(server.Refresh("t", "x").ok());

  std::vector<double> all = initial;
  all.insert(all.end(), extra.begin(), extra.end());
  auto whole = BuildEstimator(all, kDomain, config);
  ASSERT_TRUE(whole.ok());
  for (double a = 0.0; a < 900.0; a += 111.0) {
    const RangeQuery query{a, a + 90.0};
    auto served = server.Estimate("t", "x", query);
    ASSERT_TRUE(served.ok());
    EXPECT_EQ(served.value(), whole.value()->EstimateSelectivity(query));
  }
  auto stats = server.ColumnStats("t", "x");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().rebuild_refreshes, 1u);
  EXPECT_EQ(stats.value().merge_refreshes, 0u);
  auto generation = server.CurrentGeneration("t", "x");
  ASSERT_TRUE(generation.ok());
  EXPECT_FALSE(generation.value()->merged);
}

TEST(LiveServerTest, IngestVolumePolicyTriggersInlineRefresh) {
  LiveServerOptions options = InlineOptions();
  options.refresh_ingest_rows = 100;
  options.keep_generation_history = true;
  LiveStatisticsServer server(std::move(options));
  const EstimatorConfig config =
      ConfigWithBins(EstimatorKind::kEquiWidth, 16);
  ASSERT_TRUE(
      server.RegisterColumn("t", "x", kDomain, config, MakeRows(200, 8))
          .ok());

  // 60 rows: below the threshold, no flip.
  ASSERT_TRUE(server.Ingest("t", "x", MakeRows(60, 9)).ok());
  auto stats = server.ColumnStats("t", "x");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().generation, 1u);
  EXPECT_EQ(stats.value().rows_since_refresh, 60u);

  // 60 more crosses 100: inline refresh, counter reset by the folded rows.
  ASSERT_TRUE(server.Ingest("t", "x", MakeRows(60, 10)).ok());
  stats = server.ColumnStats("t", "x");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().generation, 2u);
  EXPECT_EQ(stats.value().threshold_refreshes, 1u);
  EXPECT_EQ(stats.value().rows_since_refresh, 0u);

  auto history = server.GenerationHistory("t", "x");
  ASSERT_TRUE(history.ok());
  ASSERT_EQ(history.value().size(), 2u);
  EXPECT_EQ(history.value()[0]->number, 1u);
  EXPECT_EQ(history.value()[1]->number, 2u);
}

// Liveness of refresh coalescing: a threshold crossed while a background
// refresh is in flight coalesces into it, but that refresh publishes only
// the rows it captured. The backlog must still be published once it ends,
// with no further ingest to trigger it.
TEST(LiveServerTest, ThresholdCrossedMidRefreshIsPublishedAfterIt) {
  // The refresh reads the clock after its capture (built_at_ticks); the
  // injected clock parks any caller but this thread until released.
  std::mutex mu;
  std::condition_variable cv;
  bool refresh_parked = false;
  bool released = false;
  const std::thread::id test_thread = std::this_thread::get_id();
  ThreadPool pool(1);
  LiveServerOptions options;
  options.background_refresh = true;
  options.pool = &pool;
  options.refresh_ingest_rows = 100;
  options.clock = [&]() -> uint64_t {
    if (std::this_thread::get_id() != test_thread) {
      std::unique_lock<std::mutex> lock(mu);
      refresh_parked = true;
      cv.notify_all();
      cv.wait(lock, [&]() { return released; });
    }
    return 0;
  };
  LiveStatisticsServer server(std::move(options));
  ASSERT_TRUE(server
                  .RegisterColumn("t", "x", kDomain,
                                  ConfigWithBins(EstimatorKind::kEquiWidth, 16),
                                  MakeRows(200, 31))
                  .ok());

  // 120 rows cross the threshold: the refresh captures them, then parks.
  ASSERT_TRUE(server.Ingest("t", "x", MakeRows(120, 32)).ok());
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&]() { return refresh_parked; });
  }
  // 150 more cross it again mid-refresh: coalesced into the parked one.
  // EXPECT, not ASSERT: returning early would leave the refresh parked
  // and the server's destructor waiting on it.
  EXPECT_TRUE(server.Ingest("t", "x", MakeRows(150, 33)).ok());
  {
    std::lock_guard<std::mutex> lock(mu);
    released = true;
  }
  cv.notify_all();
  server.WaitForRefreshes();

  auto generation = server.CurrentGeneration("t", "x");
  ASSERT_TRUE(generation.ok());
  EXPECT_EQ(generation.value()->rows_at_build, 200u + 120u + 150u);
  auto stats = server.ColumnStats("t", "x");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().generation, 3u);
  EXPECT_EQ(stats.value().rows_since_refresh, 0u);
  EXPECT_EQ(stats.value().threshold_refreshes, 2u);
  EXPECT_EQ(stats.value().refresh_errors, 0u);
}

TEST(LiveServerTest, TtlPolicyRefreshesOnServe) {
  uint64_t fake_now = 0;
  LiveServerOptions options = InlineOptions();
  options.ttl_ticks = 10;
  options.clock = [&fake_now]() { return fake_now; };
  LiveStatisticsServer server(std::move(options));
  ASSERT_TRUE(server
                  .RegisterColumn("t", "x", kDomain,
                                  ConfigWithBins(EstimatorKind::kEquiWidth, 8),
                                  MakeRows(150, 11))
                  .ok());
  const RangeQuery query{100.0, 400.0};

  fake_now = 9;  // within TTL: serve does not refresh
  ASSERT_TRUE(server.Estimate("t", "x", query).ok());
  auto stats = server.ColumnStats("t", "x");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().generation, 1u);
  EXPECT_EQ(stats.value().ttl_refreshes, 0u);

  fake_now = 10;  // expired: the serve triggers an inline refresh
  ASSERT_TRUE(server.Estimate("t", "x", query).ok());
  stats = server.ColumnStats("t", "x");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().generation, 2u);
  EXPECT_EQ(stats.value().ttl_refreshes, 1u);
  auto generation = server.CurrentGeneration("t", "x");
  ASSERT_TRUE(generation.ok());
  EXPECT_EQ(generation.value()->built_at_ticks, 10u);
}

TEST(LiveServerTest, PublishedGenerationsAreWrittenBack) {
  LiveServerOptions options = InlineOptions();
  options.snapshot_directory = FreshDir("live_server_writeback");
  LiveStatisticsServer server(std::move(options));
  const EstimatorConfig config =
      ConfigWithBins(EstimatorKind::kEquiWidth, 16);
  ASSERT_TRUE(
      server.RegisterColumn("t", "x", kDomain, config, MakeRows(300, 12))
          .ok());
  ASSERT_NE(server.store(), nullptr);
  const CatalogKey key{"t", "x", FingerprintConfig(config)};
  EXPECT_TRUE(server.store()->Contains(key));

  ASSERT_TRUE(server.Ingest("t", "x", MakeRows(100, 13)).ok());
  ASSERT_TRUE(server.Refresh("t", "x").ok());
  auto stats = server.ColumnStats("t", "x");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().writebacks, 2u);  // registration + refresh
  EXPECT_EQ(stats.value().writeback_errors, 0u);

  // The persisted snapshot answers like the served generation.
  auto loaded = server.store()->Get(key);
  ASSERT_TRUE(loaded.ok());
  auto current = server.CurrentEstimator("t", "x");
  ASSERT_TRUE(current.ok());
  const RangeQuery query{200.0, 700.0};
  EXPECT_EQ(loaded.value()->EstimateSelectivity(query),
            current.value()->EstimateSelectivity(query));
}

TEST(LiveServerTest, IngestFromFileFoldsTheDataset) {
  LiveStatisticsServer server(InlineOptions());
  ASSERT_TRUE(server
                  .RegisterColumn("t", "x", kDomain,
                                  ConfigWithBins(EstimatorKind::kEquiWidth, 8),
                                  MakeRows(100, 14))
                  .ok());
  const std::string path = testing::TempDir() + "live_ingest.txt";
  const std::vector<double> rows = MakeRows(64, 15);
  ASSERT_TRUE(SaveDatasetText(Dataset("ingest", kDomain, rows), path).ok());
  auto count = server.IngestFromFile("t", "x", path);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), rows.size());
  auto stats = server.ColumnStats("t", "x");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().ingested_rows, rows.size());
}

TEST(LiveServerTest, GenerationHistoryRequiresOptIn) {
  LiveStatisticsServer server(InlineOptions());
  ASSERT_TRUE(server
                  .RegisterColumn("t", "x", kDomain,
                                  ConfigWithBins(EstimatorKind::kEquiWidth, 8),
                                  MakeRows(100, 18))
                  .ok());
  EXPECT_EQ(server.GenerationHistory("t", "x").status().code(),
            StatusCode::kFailedPrecondition);
}

// --- Live sweep -------------------------------------------------------------

ExperimentSetup MakeSetup(const Dataset& data) {
  ExperimentSetup setup;
  setup.data = &data;
  setup.sample = data.values();
  Rng rng(99);
  WorkloadConfig workload;
  workload.query_fraction = 0.05;
  workload.num_queries = 64;
  setup.queries = GenerateWorkload(data, workload, rng);
  return setup;
}

// Registers each config in turn under column d.x and scores the served
// generation; a config whose registration fails yields its error cell.
std::vector<StatusOr<ErrorReport>> LiveSweep(
    LiveStatisticsServer& server, const ExperimentSetup& setup,
    const std::vector<EstimatorConfig>& configs) {
  const GroundTruth truth(*setup.data);
  std::vector<StatusOr<ErrorReport>> cells;
  for (const EstimatorConfig& config : configs) {
    const Status registered = server.RegisterColumn(
        "d", "x", setup.domain(), config, setup.sample);
    if (!registered.ok()) {
      cells.emplace_back(registered);
      continue;
    }
    auto estimator = server.CurrentEstimator("d", "x");
    if (!estimator.ok()) {
      cells.emplace_back(estimator.status());
      continue;
    }
    cells.emplace_back(
        EvaluateParallel(*estimator.value(), setup.queries, truth));
  }
  return cells;
}

void ExpectSameReport(const ErrorReport& live, const ErrorReport& direct) {
  EXPECT_EQ(live.mean_relative_error, direct.mean_relative_error);
  EXPECT_EQ(live.mean_absolute_error, direct.mean_absolute_error);
  EXPECT_EQ(live.max_relative_error, direct.max_relative_error);
  EXPECT_EQ(live.evaluated, direct.evaluated);
}

// Each config registered in turn under one column and scored from the
// served generation equals the in-memory sweep bit for bit: the
// registration build and RunConfigsParallel both call BuildEstimator on the
// same sample, and both score through the same fan-out. So does each
// config served from disk: recovered by a second server from its snapshot
// (equi-width, equi-depth) or its log (max-diff rebuilds from the replayed
// reservoir, which holds the whole 1,200-row sample).
TEST(LiveSweepTest, PureReadSweepMatchesParallelSweep) {
  const Dataset data("d", kDomain, MakeRows(1200, 19));
  const ExperimentSetup setup = MakeSetup(data);
  const std::vector<EstimatorConfig> configs = {
      ConfigWithBins(EstimatorKind::kEquiWidth, 20),
      ConfigWithBins(EstimatorKind::kEquiDepth, 20),
      ConfigWithBins(EstimatorKind::kMaxDiff, 20),
  };
  const auto direct = RunConfigsParallel(setup, configs);
  ASSERT_EQ(direct.size(), configs.size());
  LiveServerOptions durable = InlineOptions();
  durable.wal_directory = FreshDir("live_sweep_wal");
  durable.snapshot_directory = FreshDir("live_sweep_store");
  {
    LiveStatisticsServer server(durable);
    const auto live = LiveSweep(server, setup, configs);
    ASSERT_EQ(live.size(), configs.size());
    for (size_t i = 0; i < configs.size(); ++i) {
      SCOPED_TRACE(i);
      ASSERT_TRUE(direct[i].ok());
      ASSERT_TRUE(live[i].ok());
      ExpectSameReport(live[i].value(), direct[i].value());
    }
  }
  LiveStatisticsServer recovered(durable);
  const GroundTruth truth(*setup.data);
  for (size_t i = 0; i < configs.size(); ++i) {
    SCOPED_TRACE(i);
    ASSERT_TRUE(
        recovered.RecoverColumn("d", "x", setup.domain(), configs[i]).ok());
    EXPECT_EQ(recovered.ColumnStats("d", "x").value().recovery_used_snapshot,
              i < 2);
    auto estimator = recovered.CurrentEstimator("d", "x");
    ASSERT_TRUE(estimator.ok());
    ExpectSameReport(
        EvaluateParallel(*estimator.value(), setup.queries, truth),
        direct[i].value());
  }
}

// A config that cannot build yields an error cell in its own position, with
// the code RunConfigsParallel reports for it; the configs after it still
// register and score exactly as in the in-memory sweep.
TEST(LiveSweepTest, BadConfigYieldsErrorCellInOrder) {
  const Dataset data("d", kDomain, MakeRows(400, 22));
  const ExperimentSetup setup = MakeSetup(data);
  EstimatorConfig bad = ConfigWithBins(EstimatorKind::kEquiWidth, 16);
  bad.fixed_smoothing = 1.0e9;  // beyond kMaxNumBins: the build fails
  const std::vector<EstimatorConfig> configs = {
      ConfigWithBins(EstimatorKind::kEquiWidth, 16), bad,
      ConfigWithBins(EstimatorKind::kEquiDepth, 16)};
  const auto direct = RunConfigsParallel(setup, configs);
  ASSERT_EQ(direct.size(), 3u);
  LiveStatisticsServer server(InlineOptions());
  const auto live = LiveSweep(server, setup, configs);
  ASSERT_EQ(live.size(), 3u);
  ASSERT_TRUE(live[0].ok());
  ASSERT_FALSE(live[1].ok());
  ASSERT_TRUE(live[2].ok());
  ASSERT_FALSE(direct[1].ok());
  EXPECT_EQ(live[1].status().code(), direct[1].status().code());
  for (size_t i : {size_t{0}, size_t{2}}) {
    SCOPED_TRACE(i);
    ASSERT_TRUE(direct[i].ok());
    ExpectSameReport(live[i].value(), direct[i].value());
  }
}

// --- Memory bound ------------------------------------------------------------

// Bytes the process has allocated and not freed.
size_t HeapInUse() {
#if SELEST_SANITIZER_ALLOCATOR
  return __sanitizer_get_current_allocated_bytes();
#else
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;  // arena chunks + mmapped chunks
#endif
}

// Per-column ingest state is bounded by the reservoir and the estimator's
// own size, not by the rows ingested: after a warm-up that fills the
// reservoir and publishes a refresh, streaming 10^7 more rows must not grow
// the heap. Covers the merge/fold path (equi-width) and the reservoir
// rebuild path (kernel).
TEST(LiveServerTest, SustainedIngestKeepsHeapFlat) {
  constexpr uint64_t kWarmupRows = uint64_t{1} << 20;
  constexpr uint64_t kStreamRows = 10'000'000;
  constexpr int kBits = 20;
  EstimatorConfig kernel;
  kernel.kind = EstimatorKind::kKernel;
  const struct {
    const char* name;
    EstimatorConfig config;
  } cases[] = {{"equi_width", ConfigWithBins(EstimatorKind::kEquiWidth, 64)},
               {"kernel", kernel}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    LiveServerOptions options = InlineOptions();
    options.refresh_ingest_rows = kWarmupRows;
    LiveStatisticsServer server(options);
    auto initial = MakeNamedSource("normal", 2000, kBits, 6);
    auto warmup = MakeNamedSource("normal", kWarmupRows, kBits, 7);
    ASSERT_TRUE(initial.ok());
    ASSERT_TRUE(warmup.ok());
    ASSERT_TRUE(server
                    .RegisterColumn("t", "x", warmup.value()->domain(),
                                    c.config,
                                    MaterializeSource(*initial.value()))
                    .ok());
    auto warmed = server.IngestFromSource("t", "x", *warmup.value());
    ASSERT_TRUE(warmed.ok());
    ASSERT_EQ(warmed.value(), kWarmupRows);

    auto stream = MakeNamedSource("normal", kStreamRows, kBits, 8);
    ASSERT_TRUE(stream.ok());
    const size_t before = HeapInUse();
    auto streamed = server.IngestFromSource("t", "x", *stream.value());
    const size_t after = HeapInUse();
    ASSERT_TRUE(streamed.ok());
    ASSERT_EQ(streamed.value(), kStreamRows);

    auto stats = server.ColumnStats("t", "x");
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats.value().ingested_rows, kWarmupRows + kStreamRows);
    EXPECT_GE(stats.value().refreshes, kStreamRows / kWarmupRows);
    const double grown_mib =
        (static_cast<double>(after) - static_cast<double>(before)) /
        (1024.0 * 1024.0);
    EXPECT_LT(grown_mib, 1.0);
  }
}

}  // namespace
}  // namespace selest
