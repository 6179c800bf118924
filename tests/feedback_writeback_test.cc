// The feedback write-back path on the live server (DESIGN.md §14.3):
// executed-query truths are published as the next generation through a
// snapshot clone, survive a rebuild refresh and a crash bit for bit (the
// feedback ring is replayed in order), are rejected for kinds that do not
// take feedback and for bad values without logging or publishing
// anything, never strand an ingest backlog, and lose no acknowledged
// observation under concurrent ingest, refresh and serving. The last two
// cases route feedback through guarded chains to every supporting link.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "src/catalog/live_server.h"
#include "src/data/domain.h"
#include "src/est/estimator_factory.h"
#include "src/est/guarded_estimator.h"
#include "src/exec/fault_injection.h"
#include "src/exec/thread_pool.h"
#include "src/feedback/feedback_histogram.h"
#include "src/query/range_query.h"
#include "src/util/random.h"

namespace selest {
namespace {

const Domain kDomain = ContinuousDomain(0.0, 100.0);
const RangeQuery kMoved{75.0, 100.0};

std::string FreshDir(const std::string& name) {
  const std::string dir =
      testing::TempDir() + name + "_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

// A sample that concentrates on [0, 25] — the "stale" world. Feedback will
// teach the estimator that the data has since moved to [75, 100].
std::vector<double> StaleSample(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> sample(n);
  for (double& v : sample) v = 25.0 * rng.NextDouble();
  return sample;
}

EstimatorConfig ConfigFor(EstimatorKind kind) {
  EstimatorConfig config;
  config.kind = kind;
  return config;
}

LiveServerOptions InlineOptions() {
  LiveServerOptions options;
  options.background_refresh = false;
  return options;
}

LiveServerOptions DurableOptions(const std::string& name) {
  LiveServerOptions options = InlineOptions();
  options.wal_directory = FreshDir(name + "_wal");
  options.snapshot_directory = FreshDir(name + "_store");
  options.retry.base_delay_ticks = 1;
  return options;
}

// Observation i of a deterministic stream: ranges sweep the domain, and
// the truths say the mass has moved to the upper quarter.
RangeQuery ObservedRange(size_t i) {
  const double a = static_cast<double>((i * 37) % 90);
  return {a, a + 10.0};
}
double ObservedTruth(const RangeQuery& query) {
  return std::clamp((query.b - std::max(query.a, 75.0)) / 25.0, 0.0, 1.0);
}

void Observe(LiveStatisticsServer& server, size_t first, size_t count) {
  for (size_t i = first; i < first + count; ++i) {
    const RangeQuery query = ObservedRange(i);
    const Status status = server.ObserveTrueSelectivity(
        "orders", "amount", query, ObservedTruth(query));
    ASSERT_TRUE(status.ok()) << i << ": " << status.ToString();
  }
}

std::vector<double> Probe(const SelectivityEstimator& estimator) {
  std::vector<double> values;
  for (int i = 0; i < 200; ++i) {
    const double a = 0.5 * i;
    values.push_back(estimator.EstimateSelectivity({a, a + 3.0 + i % 40}));
  }
  return values;
}

std::shared_ptr<const SelectivityEstimator> Served(
    const LiveStatisticsServer& server) {
  auto estimator = server.CurrentEstimator("orders", "amount");
  EXPECT_TRUE(estimator.ok());
  return estimator.ok() ? estimator.value() : nullptr;
}

// What a rejected call must leave untouched: the served generation and
// the newest WAL sequence.
struct Footprint {
  uint64_t generation = 0;
  uint64_t wal_sequence = 0;
  friend bool operator==(const Footprint&, const Footprint&) = default;
};
Footprint FootprintOf(const LiveStatisticsServer& server) {
  auto stats = server.ColumnStats("orders", "amount");
  EXPECT_TRUE(stats.ok());
  return {stats.value().generation, stats.value().wal_last_sequence};
}

TEST(FeedbackWritebackTest, ObservationsImproveTheServedEstimate) {
  LiveStatisticsServer server(InlineOptions());
  ASSERT_TRUE(server
                  .RegisterColumn("orders", "amount", kDomain,
                                  ConfigFor(EstimatorKind::kFeedback),
                                  StaleSample(500, 1))
                  .ok());
  auto before = server.Estimate("orders", "amount", kMoved);
  ASSERT_TRUE(before.ok());
  EXPECT_LT(*before, 0.1);  // the stale sample has ~no mass there

  for (int i = 0; i < 48; ++i) {
    ASSERT_TRUE(
        server.ObserveTrueSelectivity("orders", "amount", kMoved, 0.9).ok());
  }
  auto after = server.Estimate("orders", "amount", kMoved);
  ASSERT_TRUE(after.ok());
  EXPECT_NEAR(*after, 0.9, 0.05);
  // Each observation published one generation that had seen one more.
  EXPECT_EQ(Served(server)->feedback_observations(), 48u);
  EXPECT_EQ(FootprintOf(server).generation, 49u);
}

TEST(FeedbackWritebackTest, OnlineLearningLearnsAndUnknownColumnIsNotFound) {
  LiveStatisticsServer server(InlineOptions());
  ASSERT_TRUE(server
                  .RegisterColumn("orders", "amount", kDomain,
                                  ConfigFor(EstimatorKind::kOnlineLearning),
                                  StaleSample(500, 2))
                  .ok());
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(
        server.ObserveTrueSelectivity("orders", "amount", kMoved, 0.9).ok());
  }
  auto estimate = server.Estimate("orders", "amount", kMoved);
  ASSERT_TRUE(estimate.ok());
  EXPECT_GT(*estimate, 0.5);
  EXPECT_EQ(server.ObserveTrueSelectivity("orders", "nope", {1.0, 2.0}, 0.5)
                .code(),
            StatusCode::kNotFound);
}

TEST(FeedbackWritebackTest, NonFeedbackEstimatorRejectsWithFailedPrecondition) {
  // Equi-width merges ingest; kernel rebuilds but has no feedback state.
  for (EstimatorKind kind : {EstimatorKind::kEquiWidth, EstimatorKind::kKernel}) {
    SCOPED_TRACE(EstimatorKindName(kind));
    LiveStatisticsServer server(DurableOptions("feedback_reject"));
    ASSERT_TRUE(server
                    .RegisterColumn("orders", "amount", kDomain,
                                    ConfigFor(kind), StaleSample(500, 3))
                    .ok());
    const Footprint before = FootprintOf(server);
    const Status status =
        server.ObserveTrueSelectivity("orders", "amount", {10.0, 20.0}, 0.5);
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(FootprintOf(server), before);
  }
}

TEST(FeedbackWritebackTest, InvalidFeedbackValuesDoNotReachTheCatalogEntry) {
  LiveStatisticsServer server(DurableOptions("feedback_invalid"));
  ASSERT_TRUE(server
                  .RegisterColumn("orders", "amount", kDomain,
                                  ConfigFor(EstimatorKind::kFeedback),
                                  StaleSample(500, 4))
                  .ok());
  const Footprint before = FootprintOf(server);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), 1.5}) {
    EXPECT_FALSE(server
                     .ObserveTrueSelectivity("orders", "amount",
                                             {10.0, 20.0}, bad)
                     .ok());
  }
  EXPECT_EQ(FootprintOf(server), before);
  EXPECT_EQ(Served(server)->feedback_observations(), 0u);
  // Nothing reached the ring either: a refresh replays no observation.
  ASSERT_TRUE(server.Refresh("orders", "amount").ok());
  EXPECT_EQ(Served(server)->feedback_observations(), 0u);
}

TEST(FeedbackWritebackTest, LearnedStatePersistsAcrossCatalogRestart) {
  const LiveServerOptions options = DurableOptions("feedback_restart");
  const EstimatorConfig config = ConfigFor(EstimatorKind::kFeedback);
  std::vector<double> before;
  {
    LiveStatisticsServer server(options);
    ASSERT_TRUE(server
                    .RegisterColumn("orders", "amount", kDomain, config,
                                    StaleSample(500, 5))
                    .ok());
    for (int i = 0; i < 48; ++i) {
      ASSERT_TRUE(server
                      .ObserveTrueSelectivity("orders", "amount", kMoved, 0.9)
                      .ok());
    }
    before = Probe(*Served(server));
    // Every observation is a logged record.
    EXPECT_EQ(server.ColumnStats("orders", "amount").value().wal_appends,
              48u);
  }
  // A restarted server serves the learned state, not a rebuild of the
  // stale sample.
  LiveStatisticsServer restarted(options);
  ASSERT_TRUE(
      restarted.RecoverColumn("orders", "amount", kDomain, config).ok());
  auto estimate = restarted.Estimate("orders", "amount", kMoved);
  ASSERT_TRUE(estimate.ok());
  EXPECT_NEAR(*estimate, 0.9, 0.05);
  EXPECT_EQ(Probe(*Served(restarted)), before);
}

TEST(FeedbackWritebackTest, ReadOnlyColumnRejectsFeedbackBeforeTheLog) {
  LiveStatisticsServer server(DurableOptions("feedback_read_only"));
  ASSERT_TRUE(server
                  .RegisterColumn("orders", "amount", kDomain,
                                  ConfigFor(EstimatorKind::kFeedback),
                                  StaleSample(500, 6))
                  .ok());
  {
    ScopedFault fault(kFaultPointWalAppend);
    for (int i = 0; i < 3; ++i) {
      EXPECT_FALSE(
          server.Ingest("orders", "amount", std::vector<double>{1.0, 2.0})
              .ok());
    }
  }
  auto stats = server.ColumnStats("orders", "amount");
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats.value().health, ServerHealth::kReadOnly);
  const Footprint before = FootprintOf(server);
  EXPECT_EQ(
      server.ObserveTrueSelectivity("orders", "amount", kMoved, 0.9).code(),
      StatusCode::kFailedPrecondition);
  EXPECT_EQ(FootprintOf(server), before);
  // The gate rejected it, not a WAL trip.
  EXPECT_EQ(server.ColumnStats("orders", "amount").value().wal_append_errors,
            3u);

  ASSERT_TRUE(server.ResetColumnHealth("orders", "amount").ok());
  EXPECT_TRUE(
      server.ObserveTrueSelectivity("orders", "amount", kMoved, 0.9).ok());
}

// --- Every feedback kind: refresh and recovery keep every served bit -------

class FeedbackKindTest : public testing::TestWithParam<EstimatorKind> {};

// One build plus an in-order replay of the ring lands on the same bits as
// the chain of clone-then-observe steps.
TEST_P(FeedbackKindTest, QuietRefreshKeepsEveryServedBit) {
  LiveStatisticsServer server(InlineOptions());
  ASSERT_TRUE(server
                  .RegisterColumn("orders", "amount", kDomain,
                                  ConfigFor(GetParam()), StaleSample(500, 7))
                  .ok());
  Observe(server, 0, 48);
  const std::shared_ptr<const SelectivityEstimator> before = Served(server);
  ASSERT_TRUE(server.Refresh("orders", "amount").ok());
  const std::shared_ptr<const SelectivityEstimator> after = Served(server);
  ASSERT_NE(before, after);  // a rebuild, not the same generation
  EXPECT_EQ(Probe(*after), Probe(*before));
  EXPECT_EQ(after->feedback_observations(), 48u);
}

TEST_P(FeedbackKindTest, RecoveryServesThePreCrashGeneration) {
  const LiveServerOptions options = DurableOptions("feedback_kind_recover");
  const EstimatorConfig config = ConfigFor(GetParam());
  std::vector<double> before;
  {
    LiveStatisticsServer server(options);
    ASSERT_TRUE(server
                    .RegisterColumn("orders", "amount", kDomain, config,
                                    StaleSample(500, 8))
                    .ok());
    Observe(server, 0, 48);
    before = Probe(*Served(server));
  }
  LiveStatisticsServer restarted(options);
  ASSERT_TRUE(
      restarted.RecoverColumn("orders", "amount", kDomain, config).ok());
  EXPECT_EQ(Probe(*Served(restarted)), before);
  EXPECT_EQ(Served(restarted)->feedback_observations(), 48u);
}

TEST_P(FeedbackKindTest, RecoveryAfterIngestAndRefreshServesThePreCrashGeneration) {
  const LiveServerOptions options = DurableOptions("feedback_kind_refresh");
  const EstimatorConfig config = ConfigFor(GetParam());
  std::vector<double> before;
  {
    LiveStatisticsServer server(options);
    ASSERT_TRUE(server
                    .RegisterColumn("orders", "amount", kDomain, config,
                                    StaleSample(500, 9))
                    .ok());
    Observe(server, 0, 24);
    ASSERT_TRUE(
        server.Ingest("orders", "amount", StaleSample(100, 10)).ok());
    ASSERT_TRUE(server.Refresh("orders", "amount").ok());
    Observe(server, 24, 24);
    before = Probe(*Served(server));
  }
  LiveStatisticsServer restarted(options);
  ASSERT_TRUE(
      restarted.RecoverColumn("orders", "amount", kDomain, config).ok());
  EXPECT_EQ(Probe(*Served(restarted)), before);
  auto generation = restarted.CurrentGeneration("orders", "amount");
  ASSERT_TRUE(generation.ok());
  EXPECT_EQ(generation.value()->rows_at_build, 600u);
  // The recovered column takes feedback, ingest and refreshes again.
  Observe(restarted, 48, 1);
  ASSERT_TRUE(
      restarted.Ingest("orders", "amount", StaleSample(10, 11)).ok());
  ASSERT_TRUE(restarted.Refresh("orders", "amount").ok());
  EXPECT_EQ(Served(restarted)->feedback_observations(), 49u);
}

INSTANTIATE_TEST_SUITE_P(
    AllFeedbackKinds, FeedbackKindTest,
    testing::Values(EstimatorKind::kFeedback, EstimatorKind::kReconstructed,
                    EstimatorKind::kOnlineLearning),
    [](const testing::TestParamInfo<EstimatorKind>& info) {
      std::string name = EstimatorKindName(info.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// --- Liveness and concurrency ----------------------------------------------

// Liveness of the shared claim: a threshold crossed while a feedback
// publish holds the refresh claim coalesces into it, but the publish
// carries no rows. The backlog must still be published once it releases
// the claim, with no further ingest to trigger it.
TEST(FeedbackWritebackTest, ThresholdCrossedMidFeedbackIsPublishedAfterIt) {
  // The publish reads the clock after logging (built_at_ticks); the
  // injected clock parks the feeder thread there until released.
  std::mutex mu;
  std::condition_variable cv;
  std::thread::id feeder_id;
  bool feedback_parked = false;
  bool released = false;
  ThreadPool pool(1);
  LiveServerOptions options;
  options.background_refresh = true;
  options.pool = &pool;
  options.refresh_ingest_rows = 100;
  options.clock = [&]() -> uint64_t {
    std::unique_lock<std::mutex> lock(mu);
    if (std::this_thread::get_id() == feeder_id) {
      feedback_parked = true;
      cv.notify_all();
      cv.wait(lock, [&]() { return released; });
    }
    return 0;
  };
  LiveStatisticsServer server(std::move(options));
  ASSERT_TRUE(server
                  .RegisterColumn("orders", "amount", kDomain,
                                  ConfigFor(EstimatorKind::kFeedback),
                                  StaleSample(500, 12))
                  .ok());

  Status observed;
  std::thread feeder([&]() {
    {
      std::lock_guard<std::mutex> lock(mu);
      feeder_id = std::this_thread::get_id();
    }
    observed = server.ObserveTrueSelectivity("orders", "amount", kMoved, 0.9);
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&]() { return feedback_parked; });
  }
  // 150 rows cross the threshold while the publish holds the claim.
  // EXPECT, not ASSERT: returning early would leave the feeder parked.
  EXPECT_TRUE(server.Ingest("orders", "amount", StaleSample(150, 13)).ok());
  {
    std::lock_guard<std::mutex> lock(mu);
    released = true;
  }
  cv.notify_all();
  feeder.join();
  server.WaitForRefreshes();

  EXPECT_TRUE(observed.ok());
  auto generation = server.CurrentGeneration("orders", "amount");
  ASSERT_TRUE(generation.ok());
  EXPECT_EQ(generation.value()->number, 3u);  // feedback, then the refresh
  EXPECT_EQ(generation.value()->rows_at_build, 650u);
  EXPECT_EQ(generation.value()->estimator->feedback_observations(), 1u);
  auto stats = server.ColumnStats("orders", "amount");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().rows_since_refresh, 0u);
  EXPECT_EQ(stats.value().threshold_refreshes, 1u);
  EXPECT_EQ(stats.value().refresh_errors, 0u);
}

// Feeders, ingesters with background refresh, and readers race on one
// column. Every served value is bit-identical to the generation that
// served it, and no acknowledged observation is lost: the ring holds all
// of them, so each generation — a clone that saw one more, or a rebuild
// that replayed the ring — counts every observation acknowledged before
// it. Run under tsan via the `feedback` label.
TEST(FeedbackWritebackTest, ConcurrentFeedbackIngestAndServeLosesNothing) {
  LiveServerOptions options;
  options.background_refresh = true;
  options.refresh_ingest_rows = 150;
  options.keep_generation_history = true;
  LiveStatisticsServer server(std::move(options));
  ASSERT_TRUE(server
                  .RegisterColumn("orders", "amount", kDomain,
                                  ConfigFor(EstimatorKind::kFeedback),
                                  StaleSample(500, 14))
                  .ok());

  constexpr size_t kFeeders = 2;
  constexpr size_t kObservationsPerFeeder = 60;
  constexpr size_t kIngesters = 2;
  constexpr size_t kBatches = 20;
  constexpr size_t kReaders = 2;
  constexpr size_t kReads = 1500;
  static_assert(kFeeders * kObservationsPerFeeder <= kFeedbackRingCapacity);

  struct Read {
    RangeQuery query;
    ServedEstimate served;
  };
  std::vector<std::vector<Read>> reads(kReaders);
  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  for (size_t f = 0; f < kFeeders; ++f) {
    threads.emplace_back([&, f]() {
      for (size_t i = 0; i < kObservationsPerFeeder; ++i) {
        const RangeQuery query = ObservedRange(f * 1000 + i);
        if (!server
                 .ObserveTrueSelectivity("orders", "amount", query,
                                         ObservedTruth(query))
                 .ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (size_t w = 0; w < kIngesters; ++w) {
    threads.emplace_back([&, w]() {
      for (size_t batch = 0; batch < kBatches; ++batch) {
        if (!server
                 .Ingest("orders", "amount",
                         StaleSample(25, 100 + 50 * w + batch))
                 .ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r]() {
      for (size_t i = 0; i < kReads; ++i) {
        const RangeQuery query = ObservedRange(r * 7 + i);
        auto served = server.EstimateDetailed("orders", "amount", query);
        if (!served.ok()) {
          failures.fetch_add(1);
          continue;
        }
        reads[r].push_back({query, served.value()});
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  server.WaitForRefreshes();
  ASSERT_EQ(failures.load(), 0u);

  constexpr uint64_t kAcknowledged = kFeeders * kObservationsPerFeeder;
  auto history = server.GenerationHistory("orders", "amount");
  ASSERT_TRUE(history.ok());
  uint64_t previous = 0;
  for (const auto& generation : history.value()) {
    const uint64_t seen = generation->estimator->feedback_observations();
    EXPECT_GE(seen, previous) << "generation " << generation->number;
    previous = seen;
  }
  EXPECT_EQ(previous, kAcknowledged);
  for (const auto& per_reader : reads) {
    for (const Read& read : per_reader) {
      const LiveGeneration& generation =
          *history.value()[read.served.generation - 1];
      ASSERT_EQ(generation.number, read.served.generation);
      EXPECT_EQ(read.served.value,
                generation.estimator->EstimateSelectivity(read.query));
    }
  }
  // A final rebuild replays every acknowledged observation.
  ASSERT_TRUE(server.Refresh("orders", "amount").ok());
  EXPECT_EQ(Served(server)->feedback_observations(), kAcknowledged);
  EXPECT_EQ(
      server.ColumnStats("orders", "amount").value().ingested_rows,
      kIngesters * kBatches * 25);
}

// --- Guarded chains --------------------------------------------------------

TEST(FeedbackWritebackTest, GuardedChainForwardsToEverySupportingLink) {
  // Chain: non-feedback primary + two query-driven fallbacks. Feedback must
  // reach both fallbacks (each counts its own observation) and the guard
  // must count one accepted observation per call.
  std::vector<std::unique_ptr<SelectivityEstimator>> chain;
  EstimatorConfig equi;
  equi.kind = EstimatorKind::kEquiWidth;
  auto primary = BuildEstimator(StaleSample(200, 6), kDomain, equi);
  ASSERT_TRUE(primary.ok());
  chain.push_back(std::move(*primary));
  auto histogram = FeedbackHistogram::Create(kDomain, {});
  ASSERT_TRUE(histogram.ok());
  chain.push_back(std::make_unique<FeedbackHistogram>(std::move(*histogram)));
  auto histogram2 = FeedbackHistogram::Create(kDomain, {});
  ASSERT_TRUE(histogram2.ok());
  chain.push_back(
      std::make_unique<FeedbackHistogram>(std::move(*histogram2)));
  GuardedEstimator guarded(std::move(chain), kDomain);
  ASSERT_TRUE(guarded.SupportsFeedback());

  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        guarded.ObserveTrueSelectivity({10.0, 30.0}, 0.8).ok());
  }
  EXPECT_EQ(guarded.feedback_observations(), 5u);

  // Feedback queries are repaired like estimate queries: inverted bounds
  // swap, NaN widens to the domain edge — the observation still lands.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ASSERT_TRUE(guarded.ObserveTrueSelectivity({30.0, 10.0}, 0.8).ok());
  ASSERT_TRUE(guarded.ObserveTrueSelectivity({nan, 30.0}, 0.4).ok());
  EXPECT_EQ(guarded.feedback_observations(), 7u);
}

TEST(FeedbackWritebackTest, GuardedChainWithoutFeedbackLinksRejects) {
  std::vector<std::unique_ptr<SelectivityEstimator>> chain;
  EstimatorConfig equi;
  equi.kind = EstimatorKind::kEquiWidth;
  auto primary = BuildEstimator(StaleSample(200, 7), kDomain, equi);
  ASSERT_TRUE(primary.ok());
  chain.push_back(std::move(*primary));
  GuardedEstimator guarded(std::move(chain), kDomain);
  EXPECT_FALSE(guarded.SupportsFeedback());
  const Status status = guarded.ObserveTrueSelectivity({10.0, 30.0}, 0.5);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(guarded.feedback_observations(), 0u);
}

}  // namespace
}  // namespace selest
