// The deterministic chaos harness: enumerate every crash instant on the
// durable write path (ingest → WAL → refresh → snapshot write-back), kill
// at each one, recover, and verify the crash-recovery contract:
//
//   * no row acknowledged by a successful (WAL-synced) Ingest is lost;
//   * no unacknowledged row appears;
//   * the recovered column estimates exactly as a never-crashed reference
//     server that ingested the acknowledged batches (mergeable kinds are
//     bit-identical by the fold contract; non-mergeable kinds rebuild
//     from the identically seeded replayed reservoir);
//   * for a feedback kind, whose workload interleaves observations with
//     the ingests and refreshes, the reference observed exactly the
//     acknowledged observations: recovery replays the logged ring onto
//     its rebuild, as the reference's refresh does.
//
// "Crash" is in-process: a scripted workload runs with one crash point
// armed to fire on its k-th hit (ArmNthHit); the injected error is the
// moment of death — whatever the fault left on disk is what a real crash
// at that instant would leave. The workload's hit counts are profiled
// with a never-firing schedule first, so k genuinely enumerates every
// instant. Deterministic end to end: same seeds, same schedule, same
// verdicts on every run.
#include <cstdint>
#include <filesystem>
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
#include "src/util/random.h"

namespace selest {
namespace {

const Domain kDomain = ContinuousDomain(0.0, 1000.0);
constexpr size_t kRegistrationRows = 120;
constexpr size_t kBatchRows = 20;
constexpr size_t kNumBatches = 6;

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

EstimatorConfig ConfigFor(EstimatorKind kind) {
  EstimatorConfig config;
  config.kind = kind;
  if (kind != EstimatorKind::kSampling) {
    config.smoothing = SmoothingRule::kFixed;
    config.fixed_smoothing = 16;
  }
  return config;
}

LiveServerOptions ChaosOptions(const std::string& wal_dir,
                               const std::string& store_dir) {
  LiveServerOptions options;
  options.background_refresh = false;
  options.wal_directory = wal_dir;
  options.snapshot_directory = store_dir;
  // A crash is not a transient: retrying inside the dying process would
  // blur which instant the schedule killed, so the harness runs on first
  // failure semantics.
  options.retry.max_attempts = 1;
  options.seed = 11;
  return options;
}

const std::vector<RangeQuery>& ProbeQueries() {
  static const std::vector<RangeQuery> queries = {
      {50.0, 250.0}, {200.0, 700.0}, {0.0, 1000.0}, {900.0, 950.0}};
  return queries;
}

// Observation i of the feedback workload.
RangeQuery ObservedRange(size_t i) {
  const double a = 150.0 * static_cast<double>(i);
  return {a, a + 200.0};
}
double ObservedTruth(size_t i) { return 0.05 + 0.1 * static_cast<double>(i); }

// One scripted pass of the durable write path: register, then alternate
// ingests, observations (feedback kinds only) and refreshes. Any call may
// fail while a crash point is armed; the script records which batches and
// observations were acknowledged and runs to the end (state written after
// the fault is state a real process could also have written after
// surviving an EIO — the recovery contract is about acknowledgment, not
// death timing).
struct WorkloadResult {
  bool registered = false;
  std::vector<size_t> acked_batches;
  std::vector<size_t> acked_observations;
};

WorkloadResult RunWorkload(LiveStatisticsServer& server,
                           const EstimatorConfig& config) {
  WorkloadResult result;
  result.registered =
      server
          .RegisterColumn("chaos", "x", kDomain, config,
                          MakeRows(kRegistrationRows, 1))
          .ok();
  if (!result.registered) return result;
  const bool feedback = config.kind == EstimatorKind::kFeedback;
  for (size_t i = 0; i < kNumBatches; ++i) {
    if (server.Ingest("chaos", "x", MakeRows(kBatchRows, 100 + i)).ok()) {
      result.acked_batches.push_back(i);
    }
    if (feedback && server
                        .ObserveTrueSelectivity("chaos", "x",
                                                ObservedRange(i),
                                                ObservedTruth(i))
                        .ok()) {
      result.acked_observations.push_back(i);
    }
    if (i % 2 == 1) (void)server.Refresh("chaos", "x");
  }
  return result;
}

// Profile the workload's hit count per crash point with a schedule that
// never fires (nth = SIZE_MAX), so the enumeration below covers every
// instant the clean execution actually reaches.
std::vector<std::pair<std::string, size_t>> ProfileHitCounts(
    const EstimatorConfig& config) {
  std::vector<FaultScheduleEntry> never;
  for (const char* point : WritePathCrashPoints()) {
    never.push_back({point, static_cast<size_t>(-1)});
  }
  std::vector<std::pair<std::string, size_t>> hits;
  {
    ScopedFaultSchedule schedule(std::move(never));
    LiveStatisticsServer server(ChaosOptions(FreshDir("chaos_profile_wal"),
                                             FreshDir("chaos_profile_store")));
    const WorkloadResult clean = RunWorkload(server, config);
    EXPECT_TRUE(clean.registered);
    EXPECT_EQ(clean.acked_batches.size(), kNumBatches);
    EXPECT_EQ(clean.acked_observations.size(),
              config.kind == EstimatorKind::kFeedback ? kNumBatches : 0u);
    for (const char* point : WritePathCrashPoints()) {
      hits.emplace_back(point, FaultInjector::HitCount(point));
    }
  }
  return hits;
}

class DurabilityChaosTest : public testing::Test {
 protected:
  void TearDown() override { FaultInjector::DisarmAll(); }

  void EnumerateCrashPoints(EstimatorKind kind) {
    const EstimatorConfig config = ConfigFor(kind);
    const auto hit_counts = ProfileHitCounts(config);
    size_t instants = 0;
    for (const auto& [point, hits] : hit_counts) {
      ASSERT_GT(hits, 0u) << point << " never hit: the workload does not "
                          << "exercise the whole write path";
      for (size_t k = 0; k < hits; ++k, ++instants) {
        VerifyCrashAt(config, point, k);
        if (HasFatalFailure()) {
          FAIL() << "crash point " << point << " hit " << k << " for "
                 << EstimatorKindName(kind);
        }
      }
    }
    // The paths enumerated: every append, every fsync, every write-back
    // rename, every refresh entry.
    EXPECT_GT(instants, 10u);
  }

  void VerifyCrashAt(const EstimatorConfig& config, const std::string& point,
                     size_t k) {
    const std::string wal_dir = FreshDir("chaos_run_wal");
    const std::string store_dir = FreshDir("chaos_run_store");
    WorkloadResult result;
    {
      ScopedFaultSchedule schedule({{point, k}});
      LiveStatisticsServer server(ChaosOptions(wal_dir, store_dir));
      result = RunWorkload(server, config);
      ASSERT_EQ(FaultInjector::FiredCount(point), 1u)
          << point << " hit " << k << " never fired";
      // Process death: the server object is abandoned with whatever the
      // schedule left on disk.
    }

    // Restart: a fresh server over the same directories.
    LiveStatisticsServer restarted(ChaosOptions(wal_dir, store_dir));
    const Status recovered =
        restarted.RecoverColumn("chaos", "x", kDomain, config);
    if (!result.registered) {
      // The registration itself was never acknowledged; recovery must
      // report there is nothing durable rather than fabricate a column.
      EXPECT_EQ(recovered.code(), StatusCode::kNotFound);
      return;
    }
    ASSERT_TRUE(recovered.ok()) << recovered.message();

    // No acknowledged row lost, no unacknowledged row present.
    auto generation = restarted.CurrentGeneration("chaos", "x");
    ASSERT_TRUE(generation.ok());
    EXPECT_EQ(generation.value()->rows_at_build,
              kRegistrationRows + result.acked_batches.size() * kBatchRows);

    // The reference: a never-crashed server that ingested exactly the
    // acknowledged batches and observed exactly the acknowledged
    // observations, refreshed so its generation covers them all.
    LiveStatisticsServer reference(ChaosOptions(FreshDir("chaos_ref_wal"),
                                                FreshDir("chaos_ref_store")));
    ASSERT_TRUE(reference
                    .RegisterColumn("chaos", "x", kDomain, config,
                                    MakeRows(kRegistrationRows, 1))
                    .ok());
    for (const size_t i : result.acked_batches) {
      ASSERT_TRUE(
          reference.Ingest("chaos", "x", MakeRows(kBatchRows, 100 + i)).ok());
    }
    for (const size_t i : result.acked_observations) {
      ASSERT_TRUE(reference
                      .ObserveTrueSelectivity("chaos", "x", ObservedRange(i),
                                              ObservedTruth(i))
                      .ok());
    }
    ASSERT_TRUE(reference.Refresh("chaos", "x").ok());
    EXPECT_EQ(restarted.CurrentEstimator("chaos", "x")
                  .value()
                  ->feedback_observations(),
              result.acked_observations.size());
    for (const RangeQuery& query : ProbeQueries()) {
      auto got = restarted.Estimate("chaos", "x", query);
      auto want = reference.Estimate("chaos", "x", query);
      ASSERT_TRUE(got.ok());
      ASSERT_TRUE(want.ok());
      // Mergeable kinds recover bit-identically (fold determinism);
      // non-mergeable kinds rebuild from the identically seeded replayed
      // reservoir and replay the same ring — also exact.
      EXPECT_EQ(got.value(), want.value())
          << point << " hit " << k << " query [" << query.a << ", "
          << query.b << "]";
    }

    // The recovered column is live again: it accepts ingest and refresh,
    // and a feedback column takes observations.
    ASSERT_TRUE(
        restarted.Ingest("chaos", "x", MakeRows(kBatchRows, 999)).ok());
    if (config.kind == EstimatorKind::kFeedback) {
      ASSERT_TRUE(restarted
                      .ObserveTrueSelectivity("chaos", "x", {0.0, 500.0}, 0.5)
                      .ok());
    }
    ASSERT_TRUE(restarted.Refresh("chaos", "x").ok());
  }
};

TEST_F(DurabilityChaosTest, EquiWidthSurvivesEveryCrashInstant) {
  EnumerateCrashPoints(EstimatorKind::kEquiWidth);
}

TEST_F(DurabilityChaosTest, EquiDepthSurvivesEveryCrashInstant) {
  EnumerateCrashPoints(EstimatorKind::kEquiDepth);
}

TEST_F(DurabilityChaosTest, SamplingSurvivesEveryCrashInstant) {
  EnumerateCrashPoints(EstimatorKind::kSampling);
}

TEST_F(DurabilityChaosTest, MaxDiffRebuildSurvivesEveryCrashInstant) {
  EnumerateCrashPoints(EstimatorKind::kMaxDiff);
}

TEST_F(DurabilityChaosTest, FeedbackObservationsSurviveEveryCrashInstant) {
  EnumerateCrashPoints(EstimatorKind::kFeedback);
}

}  // namespace
}  // namespace selest
