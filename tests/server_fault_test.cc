// Fault injection against the live server's refresh and ingest paths: an
// injected failure mid-refresh must leave the old generation serving
// (bit-identically), increment the error counters, and never crash, hang,
// or publish a half-built generation.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/catalog/live_server.h"
#include "src/data/domain.h"
#include "src/est/estimator_factory.h"
#include "src/exec/fault_injection.h"
#include "src/query/range_query.h"
#include "src/util/random.h"

namespace selest {
namespace {

const Domain kDomain = ContinuousDomain(0.0, 1000.0);

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

class ServerFaultTest : public testing::Test {
 protected:
  void TearDown() override { FaultInjector::DisarmAll(); }
};

TEST_F(ServerFaultTest, RefreshFaultKeepsOldGenerationServing) {
  LiveServerOptions options;
  options.background_refresh = false;
  LiveStatisticsServer server(std::move(options));
  const EstimatorConfig config =
      ConfigWithBins(EstimatorKind::kEquiWidth, 16);
  ASSERT_TRUE(
      server.RegisterColumn("t", "x", kDomain, config, MakeRows(400, 1))
          .ok());
  const RangeQuery query{200.0, 700.0};
  auto before = server.Estimate("t", "x", query);
  ASSERT_TRUE(before.ok());

  ASSERT_TRUE(server.Ingest("t", "x", MakeRows(100, 2)).ok());
  {
    ScopedFault fault(kFaultPointServerRefresh);
    const Status failed = server.Refresh("t", "x");
    EXPECT_EQ(failed.code(), StatusCode::kInternal);
    // Transient-looking failures retry with backoff before giving up, so
    // a persistently armed fault fires once per attempt.
    EXPECT_EQ(FaultInjector::FiredCount(kFaultPointServerRefresh),
              RetryOptions{}.max_attempts);
  }
  // Old generation serves on, answering exactly as before the attempt.
  auto after = server.Estimate("t", "x", query);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value(), before.value());
  auto stats = server.ColumnStats("t", "x");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().generation, 1u);
  EXPECT_EQ(stats.value().refreshes, 0u);
  EXPECT_EQ(stats.value().refresh_errors, 1u);

  // Disarmed, the very next refresh succeeds with the folded rows intact.
  ASSERT_TRUE(server.Refresh("t", "x").ok());
  stats = server.ColumnStats("t", "x");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().generation, 2u);
  EXPECT_EQ(stats.value().refresh_errors, 1u);
  auto generation = server.CurrentGeneration("t", "x");
  ASSERT_TRUE(generation.ok());
  EXPECT_EQ(generation.value()->rows_at_build, 500u);
}

TEST_F(ServerFaultTest, BuildFaultFailsRebuildPathOnly) {
  // est/build fires inside BuildEstimator: the rebuild path (kMaxDiff)
  // hits it, the merge path (kEquiWidth, serialize-clone) does not.
  LiveServerOptions options;
  options.background_refresh = false;
  LiveStatisticsServer server(std::move(options));
  ASSERT_TRUE(server
                  .RegisterColumn("r", "a", kDomain,
                                  ConfigWithBins(EstimatorKind::kMaxDiff, 16),
                                  MakeRows(300, 3))
                  .ok());
  ASSERT_TRUE(server
                  .RegisterColumn("r", "b", kDomain,
                                  ConfigWithBins(EstimatorKind::kEquiWidth, 16),
                                  MakeRows(300, 4))
                  .ok());
  ASSERT_TRUE(server.Ingest("r", "a", MakeRows(50, 5)).ok());
  ASSERT_TRUE(server.Ingest("r", "b", MakeRows(50, 6)).ok());

  ScopedFault fault(kFaultPointEstimatorBuild);
  EXPECT_EQ(server.Refresh("r", "a").code(), StatusCode::kInternal);
  EXPECT_TRUE(server.Refresh("r", "b").ok());

  auto rebuild_stats = server.ColumnStats("r", "a");
  ASSERT_TRUE(rebuild_stats.ok());
  EXPECT_EQ(rebuild_stats.value().generation, 1u);
  EXPECT_EQ(rebuild_stats.value().refresh_errors, 1u);
  auto merge_stats = server.ColumnStats("r", "b");
  ASSERT_TRUE(merge_stats.ok());
  EXPECT_EQ(merge_stats.value().generation, 2u);
  EXPECT_EQ(merge_stats.value().refresh_errors, 0u);
  EXPECT_EQ(merge_stats.value().merge_refreshes, 1u);
}

TEST_F(ServerFaultTest, FileIngestFaultLeavesColumnUntouched) {
  LiveServerOptions options;
  options.background_refresh = false;
  LiveStatisticsServer server(std::move(options));
  ASSERT_TRUE(server
                  .RegisterColumn("t", "x", kDomain,
                                  ConfigWithBins(EstimatorKind::kEquiWidth, 8),
                                  MakeRows(200, 7))
                  .ok());
  const RangeQuery query{100.0, 500.0};
  auto before = server.Estimate("t", "x", query);
  ASSERT_TRUE(before.ok());

  // The fault fires before any parsing, so the path does not even need to
  // exist on disk for the deterministic failure.
  {
    ScopedFault fault(kFaultPointDatasetReadText);
    auto count = server.IngestFromFile("t", "x", "/nonexistent/rows.txt");
    EXPECT_FALSE(count.ok());
  }
  auto stats = server.ColumnStats("t", "x");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().ingested_rows, 0u);
  EXPECT_EQ(stats.value().generation, 1u);
  auto after = server.Estimate("t", "x", query);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value(), before.value());
}

TEST_F(ServerFaultTest, BackgroundRefreshFaultDegradesGracefully) {
  LiveServerOptions options;
  options.background_refresh = true;
  options.refresh_ingest_rows = 50;
  LiveStatisticsServer server(std::move(options));
  ASSERT_TRUE(server
                  .RegisterColumn("t", "x", kDomain,
                                  ConfigWithBins(EstimatorKind::kEquiWidth, 16),
                                  MakeRows(300, 8))
                  .ok());
  const RangeQuery query{150.0, 650.0};
  auto before = server.Estimate("t", "x", query);
  ASSERT_TRUE(before.ok());

  {
    ScopedFault fault(kFaultPointServerRefresh);
    // Crossing the threshold schedules a background refresh that fails on
    // the pool worker; the ingest itself must still succeed.
    ASSERT_TRUE(server.Ingest("t", "x", MakeRows(80, 9)).ok());
    server.WaitForRefreshes();
  }
  auto stats = server.ColumnStats("t", "x");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().generation, 1u);
  EXPECT_EQ(stats.value().refresh_errors, 1u);
  EXPECT_EQ(stats.value().threshold_refreshes, 1u);
  EXPECT_EQ(stats.value().ingested_rows, 80u);
  auto after = server.Estimate("t", "x", query);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value(), before.value());

  // Healed: the next threshold crossing publishes generation 2 carrying
  // all 160 ingested rows.
  ASSERT_TRUE(server.Ingest("t", "x", MakeRows(80, 10)).ok());
  server.WaitForRefreshes();
  stats = server.ColumnStats("t", "x");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().generation, 2u);
  auto generation = server.CurrentGeneration("t", "x");
  ASSERT_TRUE(generation.ok());
  EXPECT_EQ(generation.value()->rows_at_build, 460u);
}

TEST_F(ServerFaultTest, FailedInlineThresholdRefreshStillAcceptsTheBatch) {
  // An inline refresh triggered by the volume threshold fails after the
  // batch is logged and folded. Ingest must report the batch accepted:
  // an error would tell the caller to retry, and the retry would fold the
  // same rows twice.
  LiveServerOptions options;
  options.background_refresh = false;
  options.refresh_ingest_rows = 50;
  LiveStatisticsServer server(std::move(options));
  ASSERT_TRUE(server
                  .RegisterColumn("t", "x", kDomain,
                                  ConfigWithBins(EstimatorKind::kEquiWidth, 16),
                                  MakeRows(300, 12))
                  .ok());
  {
    ScopedFault fault(kFaultPointServerRefresh);
    EXPECT_TRUE(server.Ingest("t", "x", MakeRows(80, 13)).ok());
  }
  auto stats = server.ColumnStats("t", "x");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().ingested_rows, 80u);
  EXPECT_EQ(stats.value().generation, 1u);
  EXPECT_EQ(stats.value().threshold_refreshes, 1u);
  EXPECT_EQ(stats.value().refresh_errors, 1u);

  // Disarmed, the next batch's refresh publishes every row exactly once.
  ASSERT_TRUE(server.Ingest("t", "x", MakeRows(80, 14)).ok());
  stats = server.ColumnStats("t", "x");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().ingested_rows, 160u);
  EXPECT_EQ(stats.value().generation, 2u);
  EXPECT_EQ(stats.value().refresh_errors, 1u);
  auto generation = server.CurrentGeneration("t", "x");
  ASSERT_TRUE(generation.ok());
  EXPECT_EQ(generation.value()->rows_at_build, 460u);
}

TEST_F(ServerFaultTest, ProbabilisticRefreshFaultsNeverWedgeTheColumn) {
  // A seeded coin per refresh: whatever subset fails, the column keeps
  // serving, failures are counted, and a final clean refresh recovers.
  LiveServerOptions options;
  options.background_refresh = false;
  LiveStatisticsServer server(std::move(options));
  ASSERT_TRUE(server
                  .RegisterColumn("t", "x", kDomain,
                                  ConfigWithBins(EstimatorKind::kEquiWidth, 16),
                                  MakeRows(300, 11))
                  .ok());
  size_t failures = 0;
  {
    FaultPlan plan;
    plan.probability = 0.5;
    plan.seed = 42;
    ScopedFault fault(kFaultPointServerRefresh, plan);
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(server.Ingest("t", "x", MakeRows(10, 100 + i)).ok());
      if (!server.Refresh("t", "x").ok()) ++failures;
      ASSERT_TRUE(server.Estimate("t", "x", {100.0, 400.0}).ok());
    }
  }
  auto stats = server.ColumnStats("t", "x");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().refresh_errors, failures);
  EXPECT_EQ(stats.value().refreshes + failures, 20u);
  ASSERT_TRUE(server.Refresh("t", "x").ok());
  auto generation = server.CurrentGeneration("t", "x");
  ASSERT_TRUE(generation.ok());
  EXPECT_EQ(generation.value()->rows_at_build, 500u);
}

}  // namespace
}  // namespace selest
