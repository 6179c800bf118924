// The live server's durable ingest path: WAL-first acknowledgment, NaN
// rows rejected before the log, the healthy → degraded → read-only health
// machine, retry counters on the refresh and write-back paths, the pinned
// on-disk names, the crash → RecoverColumn round trip, and a shutdown that
// closes every log although a reader still holds a table owning it. Recovery
// through a damaged snapshot file is in catalog_corrupt_snapshot_test.
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "src/catalog/live_server.h"
#include "src/data/domain.h"
#include "src/est/estimator_factory.h"
#include "src/exec/fault_injection.h"
#include "src/query/range_query.h"
#include "src/util/epoch.h"
#include "src/util/random.h"

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

EstimatorConfig ConfigFor(EstimatorKind kind, int bins) {
  EstimatorConfig config;
  config.kind = kind;
  config.smoothing = SmoothingRule::kFixed;
  config.fixed_smoothing = bins;
  return config;
}

LiveServerOptions DurableOptions(const std::string& wal_dir,
                                 const std::string& store_dir) {
  LiveServerOptions options;
  options.background_refresh = false;
  options.wal_directory = wal_dir;
  options.snapshot_directory = store_dir;
  options.retry.base_delay_ticks = 1;  // negligible real sleeping in tests
  return options;
}

class ServerDurabilityTest : public testing::Test {
 protected:
  void TearDown() override { FaultInjector::DisarmAll(); }
};

TEST_F(ServerDurabilityTest, IngestIsLoggedBeforeItIsAcknowledged) {
  const std::string wal_dir = FreshDir("srvdur_log_wal");
  LiveStatisticsServer server(
      DurableOptions(wal_dir, FreshDir("srvdur_log_store")));
  const EstimatorConfig config = ConfigFor(EstimatorKind::kEquiWidth, 16);
  ASSERT_TRUE(
      server.RegisterColumn("t", "x", kDomain, config, MakeRows(200, 1))
          .ok());
  ASSERT_TRUE(server.Ingest("t", "x", MakeRows(50, 2)).ok());
  ASSERT_TRUE(server.Ingest("t", "x", MakeRows(30, 3)).ok());

  auto stats = server.ColumnStats("t", "x");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().wal_appends, 2u);
  EXPECT_EQ(stats.value().wal_append_errors, 0u);
  EXPECT_EQ(stats.value().health, ServerHealth::kHealthy);
  // Registration record + two ingest batches, all durable.
  EXPECT_GE(stats.value().wal_last_sequence, 3u);
  // The column's log is a real directory of segment files on disk.
  const std::string column_wal = LiveStatisticsServer::WalDirectoryFor(
      wal_dir, CatalogKey{"t", "x", FingerprintConfig(config)});
  EXPECT_TRUE(std::filesystem::is_directory(column_wal));
  EXPECT_FALSE(std::filesystem::is_empty(column_wal));
}

TEST_F(ServerDurabilityTest, WalFailureDoesNotMutateInMemoryState) {
  LiveStatisticsServer server(DurableOptions(FreshDir("srvdur_atomic_wal"),
                                             FreshDir("srvdur_atomic_store")));
  ASSERT_TRUE(server
                  .RegisterColumn("t", "x", kDomain,
                                  ConfigFor(EstimatorKind::kEquiWidth, 16),
                                  MakeRows(200, 4))
                  .ok());
  const RangeQuery query{200.0, 700.0};
  ASSERT_TRUE(server.Refresh("t", "x").ok());
  auto before = server.Estimate("t", "x", query);
  ASSERT_TRUE(before.ok());
  {
    ScopedFault fault(kFaultPointWalAppend);
    const std::vector<double> batch = MakeRows(40, 5);
    EXPECT_FALSE(server.Ingest("t", "x", batch).ok());
    // Nothing was folded: the same batch can be retried verbatim without
    // double-counting once the log heals.
    auto stats = server.ColumnStats("t", "x");
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats.value().ingested_rows, 0u);
    EXPECT_EQ(stats.value().health, ServerHealth::kDegraded);
  }
  ASSERT_TRUE(server.Ingest("t", "x", MakeRows(40, 5)).ok());
  auto stats = server.ColumnStats("t", "x");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().ingested_rows, 40u);
  EXPECT_EQ(stats.value().health, ServerHealth::kHealthy);  // healed
  // The refreshed estimate reflects exactly one copy of the batch.
  ASSERT_TRUE(server.Refresh("t", "x").ok());
  auto generation = server.CurrentGeneration("t", "x");
  ASSERT_TRUE(generation.ok());
  EXPECT_EQ(generation.value()->rows_at_build, 240u);
}

// Domain::Clamp passes NaN through. A logged NaN row would fail every
// later rebuild (kernel) or sort into a sample strip without a strict weak
// order (sampling), and no refresh or recovery of the column could succeed
// again. The whole batch is rejected before the log.
TEST_F(ServerDurabilityTest, NanRowRejectsTheBatchBeforeTheLog) {
  for (EstimatorKind kind : {EstimatorKind::kKernel, EstimatorKind::kSampling}) {
    SCOPED_TRACE(EstimatorKindName(kind));
    const std::string wal_dir = FreshDir("srvdur_nan_wal");
    const std::string store_dir = FreshDir("srvdur_nan_store");
    EstimatorConfig config;
    config.kind = kind;
    {
      LiveStatisticsServer server(DurableOptions(wal_dir, store_dir));
      ASSERT_TRUE(
          server.RegisterColumn("t", "x", kDomain, config, MakeRows(500, 30))
              .ok());
      const std::vector<double> batch = {
          50.0, std::numeric_limits<double>::quiet_NaN(), 20.0};
      EXPECT_EQ(server.Ingest("t", "x", batch).code(),
                StatusCode::kInvalidArgument);
      auto stats = server.ColumnStats("t", "x");
      ASSERT_TRUE(stats.ok());
      EXPECT_EQ(stats.value().wal_appends, 0u);
      EXPECT_EQ(stats.value().wal_append_errors, 0u);
      EXPECT_EQ(stats.value().ingested_rows, 0u);
      EXPECT_EQ(stats.value().health, ServerHealth::kHealthy);
      // ±inf still clamps to the domain edges.
      ASSERT_TRUE(server
                      .Ingest("t", "x",
                              std::vector<double>{
                                  std::numeric_limits<double>::infinity(),
                                  -std::numeric_limits<double>::infinity()})
                      .ok());
      ASSERT_TRUE(server.Refresh("t", "x").ok());
    }
    LiveStatisticsServer restarted(DurableOptions(wal_dir, store_dir));
    ASSERT_TRUE(restarted.RecoverColumn("t", "x", kDomain, config).ok());
    ASSERT_TRUE(restarted.Refresh("t", "x").ok());
    EXPECT_EQ(restarted.CurrentGeneration("t", "x").value()->rows_at_build,
              502u);
  }
}

// SnapshotStore::LabelFor names every snapshot file and WAL directory. A
// changed CatalogKeyHash or Sanitize would silently orphan every column's
// durable state, so the names are pinned exactly.
TEST_F(ServerDurabilityTest, OnDiskNamesArePinned) {
  struct Pin {
    CatalogKey key;
    const char* label;
  };
  const Pin pins[] = {
      {{"orders", "amount", 0x0123456789abcdefull},
       "orders.amount-322c9355bf8274dc"},
      {{"sales db", "price($)/eur", 42},
       "sales_db.price____eur-c5632f573065c260"},
      {{"t", "x", 0}, "t.x-57f8d6d6001f8a73"},
  };
  const SnapshotStore store(FreshDir("srvdur_names_store"));
  for (const Pin& pin : pins) {
    EXPECT_EQ(SnapshotStore::LabelFor(pin.key), pin.label);
    EXPECT_EQ(LiveStatisticsServer::WalDirectoryFor("wal", pin.key),
              std::string("wal/") + pin.label + ".wal");
    EXPECT_EQ(store.PathFor(pin.key),
              store.directory() + "/" + pin.label + ".snapshot");
  }
}

TEST_F(ServerDurabilityTest, RepeatedWalFailuresLatchReadOnly) {
  LiveStatisticsServer server(DurableOptions(FreshDir("srvdur_ro_wal"),
                                             FreshDir("srvdur_ro_store")));
  ASSERT_TRUE(server
                  .RegisterColumn("t", "x", kDomain,
                                  ConfigFor(EstimatorKind::kEquiWidth, 16),
                                  MakeRows(200, 6))
                  .ok());
  const RangeQuery query{100.0, 600.0};
  {
    ScopedFault fault(kFaultPointWalAppend);
    // Default read_only_after_failures = 3: two failures degrade, the
    // third latches read-only.
    for (int i = 0; i < 3; ++i) {
      EXPECT_FALSE(server.Ingest("t", "x", MakeRows(10, 10 + i)).ok());
    }
  }
  auto stats = server.ColumnStats("t", "x");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().health, ServerHealth::kReadOnly);
  EXPECT_EQ(stats.value().wal_append_errors, 3u);
  EXPECT_EQ(stats.value().consecutive_wal_failures, 3u);
  EXPECT_EQ(server.Health(), ServerHealth::kReadOnly);

  // Read-only: ingest is rejected BEFORE touching the WAL (the fault is
  // disarmed now — the gate alone rejects), serving continues.
  const Status rejected = server.Ingest("t", "x", MakeRows(10, 20));
  EXPECT_EQ(rejected.code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(server.Estimate("t", "x", query).ok());
  stats = server.ColumnStats("t", "x");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().wal_append_errors, 3u);  // gate, not a WAL trip

  // The operator lever: reset, and ingest flows again.
  ASSERT_TRUE(server.ResetColumnHealth("t", "x").ok());
  EXPECT_EQ(server.Health(), ServerHealth::kHealthy);
  ASSERT_TRUE(server.Ingest("t", "x", MakeRows(10, 21)).ok());
  stats = server.ColumnStats("t", "x");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().health, ServerHealth::kHealthy);
  EXPECT_EQ(stats.value().ingested_rows, 10u);
}

TEST_F(ServerDurabilityTest, TransientRefreshFaultIsRetriedToSuccess) {
  LiveStatisticsServer server(DurableOptions(FreshDir("srvdur_retry_wal"),
                                             FreshDir("srvdur_retry_store")));
  ASSERT_TRUE(server
                  .RegisterColumn("t", "x", kDomain,
                                  ConfigFor(EstimatorKind::kEquiWidth, 16),
                                  MakeRows(200, 7))
                  .ok());
  ASSERT_TRUE(server.Ingest("t", "x", MakeRows(50, 8)).ok());
  {
    // Fail only the first refresh attempt: with the default 3-attempt
    // budget the retry succeeds and no error is recorded.
    FaultPlan plan;
    plan.skip = 0;
    plan.count = 1;
    ScopedFault fault(kFaultPointServerRefresh, plan);
    ASSERT_TRUE(server.Refresh("t", "x").ok());
  }
  auto stats = server.ColumnStats("t", "x");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().refreshes, 1u);
  EXPECT_EQ(stats.value().refresh_errors, 0u);
  EXPECT_EQ(stats.value().refresh_retries, 1u);
  EXPECT_EQ(stats.value().generation, 2u);
}

TEST_F(ServerDurabilityTest, TransientWritebackFaultIsRetriedToSuccess) {
  LiveStatisticsServer server(DurableOptions(FreshDir("srvdur_wb_wal"),
                                             FreshDir("srvdur_wb_store")));
  ASSERT_TRUE(server
                  .RegisterColumn("t", "x", kDomain,
                                  ConfigFor(EstimatorKind::kEquiWidth, 16),
                                  MakeRows(200, 9))
                  .ok());
  ASSERT_TRUE(server.Ingest("t", "x", MakeRows(50, 10)).ok());
  {
    FaultPlan plan;
    plan.skip = 0;
    plan.count = 1;
    ScopedFault fault(kFaultPointStoreRename, plan);
    ASSERT_TRUE(server.Refresh("t", "x").ok());
  }
  auto stats = server.ColumnStats("t", "x");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().writeback_errors, 0u);
  EXPECT_EQ(stats.value().writeback_retries, 1u);
  // Registration + refresh both persisted despite the transient.
  EXPECT_EQ(stats.value().writebacks, 2u);
}

TEST_F(ServerDurabilityTest, CrashAndRecoverRoundTripServesIdentically) {
  const std::string wal_dir = FreshDir("srvdur_rt_wal");
  const std::string store_dir = FreshDir("srvdur_rt_store");
  const EstimatorConfig config = ConfigFor(EstimatorKind::kEquiWidth, 16);
  const RangeQuery query{150.0, 800.0};
  double before = 0.0;
  {
    LiveStatisticsServer server(DurableOptions(wal_dir, store_dir));
    ASSERT_TRUE(
        server.RegisterColumn("t", "x", kDomain, config, MakeRows(300, 11))
            .ok());
    ASSERT_TRUE(server.Ingest("t", "x", MakeRows(60, 12)).ok());
    ASSERT_TRUE(server.Ingest("t", "x", MakeRows(40, 13)).ok());
    ASSERT_TRUE(server.Refresh("t", "x").ok());
    auto estimate = server.Estimate("t", "x", query);
    ASSERT_TRUE(estimate.ok());
    before = estimate.value();
    // "Crash": the server is abandoned; only the WAL and snapshots
    // survive.
  }
  LiveStatisticsServer restarted(DurableOptions(wal_dir, store_dir));
  ASSERT_TRUE(restarted.RecoverColumn("t", "x", kDomain, config).ok());
  auto stats = restarted.ColumnStats("t", "x");
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats.value().recovered);
  EXPECT_TRUE(stats.value().recovery_used_snapshot);  // proven mark on disk
  EXPECT_EQ(stats.value().health, ServerHealth::kHealthy);
  auto generation = restarted.CurrentGeneration("t", "x");
  ASSERT_TRUE(generation.ok());
  EXPECT_EQ(generation.value()->rows_at_build, 400u);
  auto after = restarted.Estimate("t", "x", query);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value(), before);  // bit-identical recovery
  // And the recovered column is fully live.
  ASSERT_TRUE(restarted.Ingest("t", "x", MakeRows(25, 14)).ok());
  ASSERT_TRUE(restarted.Refresh("t", "x").ok());
}

TEST_F(ServerDurabilityTest, ShutdownClosesLogsARetiredTableStillOwns) {
  // A guard opened before the second registration keeps the table that
  // registration retired, and the column t.x it owns, alive past the
  // server. Shutdown must still flush and close t.x's buffered log, so a
  // server restarted meanwhile recovers every acknowledged row.
  const std::string wal_dir = FreshDir("srvdur_retired_wal");
  const EstimatorConfig config = ConfigFor(EstimatorKind::kEquiWidth, 16);
  LiveServerOptions options = DurableOptions(wal_dir, "");
  options.wal.sync_every_append = false;
  {
    const EpochGuard reader;  // a reader of some other server
    {
      LiveStatisticsServer server(options);
      ASSERT_TRUE(
          server.RegisterColumn("t", "x", kDomain, config, MakeRows(200, 21))
              .ok());
      ASSERT_TRUE(
          server.RegisterColumn("t", "y", kDomain, config, MakeRows(200, 22))
              .ok());
      ASSERT_TRUE(server.Ingest("t", "x", MakeRows(50, 23)).ok());
    }
    LiveStatisticsServer restarted(options);
    ASSERT_TRUE(restarted.RecoverColumn("t", "x", kDomain, config).ok());
    auto generation = restarted.CurrentGeneration("t", "x");
    ASSERT_TRUE(generation.ok());
    EXPECT_EQ(generation.value()->rows_at_build, 250u);
  }
  ReclaimRetired();
}

TEST_F(ServerDurabilityTest, RecoverWithoutRegistrationIsNotFound) {
  LiveStatisticsServer server(DurableOptions(FreshDir("srvdur_nf_wal"),
                                             FreshDir("srvdur_nf_store")));
  EXPECT_EQ(server
                .RecoverColumn("ghost", "x", kDomain,
                               ConfigFor(EstimatorKind::kEquiWidth, 16))
                .code(),
            StatusCode::kNotFound);
}

TEST_F(ServerDurabilityTest, WalDisabledKeepsLegacyBehavior) {
  // No wal_directory: ingest never touches a log, stats stay zero, and
  // recovery is unavailable by contract.
  LiveServerOptions options;
  options.background_refresh = false;
  LiveStatisticsServer server(std::move(options));
  const EstimatorConfig config = ConfigFor(EstimatorKind::kEquiWidth, 16);
  ASSERT_TRUE(
      server.RegisterColumn("t", "x", kDomain, config, MakeRows(200, 15))
          .ok());
  ASSERT_TRUE(server.Ingest("t", "x", MakeRows(30, 16)).ok());
  auto stats = server.ColumnStats("t", "x");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().wal_appends, 0u);
  EXPECT_EQ(stats.value().wal_last_sequence, 0u);
  EXPECT_EQ(stats.value().health, ServerHealth::kHealthy);
  EXPECT_EQ(server.RecoverColumn("t", "x", kDomain, config).code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace selest
