// Concurrency tests for the lock-free serve front: reader threads hammer
// the serve path while refreshes flip generations and re-registrations
// replace whole columns underneath them, and every served answer must be
// bit-identical to *some* published generation — never a torn mix of two,
// never a freed one. The epoch domain's lifetimes are checked from the
// outside: a held generation survives any number of flips, retired ones
// are freed once the readers have left, serve counts are exact, and reader
// slots are reused. Runs under tsan and asan-ubsan via the `server` label,
// which proves the raw-pointer publish against concurrent loads race-free
// and every retired table, column and generation freed only after its
// readers.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/catalog/live_server.h"
#include "src/data/domain.h"
#include "src/est/estimator_factory.h"
#include "src/query/range_query.h"
#include "src/util/epoch.h"
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

std::vector<RangeQuery> ProbeQueries() {
  std::vector<RangeQuery> queries;
  for (int i = 0; i < 16; ++i) {
    const double a = 55.0 * static_cast<double>(i);
    queries.push_back({a, a + 80.0});
  }
  return queries;
}

struct Observation {
  size_t query = 0;
  double value = 0.0;
  uint64_t generation = 0;
};

// The tent-pole assertion: readers race a writer that ingests and flips
// generations; afterwards every observation is replayed against the exact
// generation that served it.
TEST(EpochConcurrencyTest, ServedValuesAreBitIdenticalToSomeGeneration) {
  LiveServerOptions options;
  options.background_refresh = false;  // the writer thread flips inline
  options.keep_generation_history = true;
  LiveStatisticsServer server(std::move(options));
  const EstimatorConfig config =
      ConfigWithBins(EstimatorKind::kEquiWidth, 32);
  ASSERT_TRUE(
      server.RegisterColumn("t", "x", kDomain, config, MakeRows(600, 1))
          .ok());

  const std::vector<RangeQuery> queries = ProbeQueries();
  constexpr size_t kReaders = 4;
  constexpr size_t kReadsPerReader = 2000;
  constexpr size_t kFlips = 25;

  std::atomic<bool> start{false};
  std::atomic<bool> writer_done{false};
  std::vector<std::vector<Observation>> observations(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (size_t r = 0; r < kReaders; ++r) {
    observations[r].reserve(kReadsPerReader);
    readers.emplace_back([&, r]() {
      while (!start.load()) std::this_thread::yield();
      for (size_t i = 0; i < kReadsPerReader; ++i) {
        const size_t q = (r * 7 + i) % queries.size();
        auto served = server.EstimateDetailed("t", "x", queries[q]);
        ASSERT_TRUE(served.ok());
        observations[r].push_back(
            {q, served.value().value, served.value().generation});
      }
    });
  }

  std::thread writer([&]() {
    start.store(true);
    for (size_t flip = 0; flip < kFlips; ++flip) {
      ASSERT_TRUE(server.Ingest("t", "x", MakeRows(40, 100 + flip)).ok());
      ASSERT_TRUE(server.Refresh("t", "x").ok());
    }
    writer_done.store(true);
  });
  writer.join();
  for (std::thread& reader : readers) reader.join();

  auto history = server.GenerationHistory("t", "x");
  ASSERT_TRUE(history.ok());
  ASSERT_EQ(history.value().size(), kFlips + 1);

  // Replay: an observation stamped generation g must equal g's estimator's
  // answer exactly. A torn read (estimator from one epoch, number from
  // another, or a half-published generation) cannot pass for every probe.
  size_t replayed = 0;
  for (const auto& per_reader : observations) {
    uint64_t last_generation = 0;
    for (const Observation& seen : per_reader) {
      ASSERT_GE(seen.generation, 1u);
      ASSERT_LE(seen.generation, kFlips + 1);
      const LiveGeneration& generation =
          *history.value()[seen.generation - 1];
      ASSERT_EQ(generation.number, seen.generation);
      EXPECT_EQ(seen.value,
                generation.estimator->EstimateSelectivity(queries[seen.query]))
          << "reader observed a value not produced by generation "
          << seen.generation;
      // Served generations never move backwards for a single reader.
      EXPECT_GE(seen.generation, last_generation);
      last_generation = seen.generation;
      ++replayed;
    }
  }
  EXPECT_EQ(replayed, kReaders * kReadsPerReader);
}

// Concurrent ingest from several threads, serves from several more,
// background refreshes on the shared pool: exercises the ingest mutex, the
// refresh coalescing flag, WaitForRefreshes and the per-reader serve
// shards. Correctness here is "tsan-clean and the counters add up
// exactly", not specific values.
TEST(EpochConcurrencyTest, ConcurrentIngestAndServeIsClean) {
  LiveServerOptions options;
  options.background_refresh = true;
  options.refresh_ingest_rows = 200;
  LiveStatisticsServer server(std::move(options));
  ASSERT_TRUE(server
                  .RegisterColumn("t", "x", kDomain,
                                  ConfigWithBins(EstimatorKind::kEquiWidth, 16),
                                  MakeRows(400, 2))
                  .ok());

  constexpr size_t kWriters = 3;
  constexpr size_t kBatches = 20;
  constexpr size_t kBatchRows = 50;
  constexpr size_t kReaders = 4;
  constexpr size_t kReadsPerReader = 3000;
  const std::vector<RangeQuery> queries = ProbeQueries();

  std::vector<std::thread> workers;
  for (size_t w = 0; w < kWriters; ++w) {
    workers.emplace_back([&, w]() {
      for (size_t batch = 0; batch < kBatches; ++batch) {
        ASSERT_TRUE(
            server.Ingest("t", "x", MakeRows(kBatchRows, 10 * w + batch))
                .ok());
      }
    });
  }
  for (size_t r = 0; r < kReaders; ++r) {
    workers.emplace_back([&, r]() {
      for (size_t i = 0; i < kReadsPerReader; ++i) {
        ASSERT_TRUE(
            server.Estimate("t", "x", queries[(r + i) % queries.size()])
                .ok());
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  server.WaitForRefreshes();

  auto stats = server.ColumnStats("t", "x");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().ingested_rows, kWriters * kBatches * kBatchRows);
  EXPECT_EQ(stats.value().serves, kReaders * kReadsPerReader);
  EXPECT_GE(stats.value().refreshes, 1u);
  EXPECT_EQ(stats.value().refresh_errors, 0u);
  auto generation = server.CurrentGeneration("t", "x");
  ASSERT_TRUE(generation.ok());
  EXPECT_EQ(generation.value()->number, stats.value().generation);
}

// A reader holding the estimator of an old generation keeps a valid object
// across arbitrarily many flips (RCU lifetime: the shared_ptr keeps the
// epoch alive).
TEST(EpochConcurrencyTest, OldGenerationSurvivesWhileHeld) {
  LiveServerOptions options;
  options.background_refresh = false;
  LiveStatisticsServer server(std::move(options));
  ASSERT_TRUE(server
                  .RegisterColumn("t", "x", kDomain,
                                  ConfigWithBins(EstimatorKind::kEquiWidth, 8),
                                  MakeRows(300, 3))
                  .ok());
  auto held = server.CurrentEstimator("t", "x");
  ASSERT_TRUE(held.ok());
  const RangeQuery query{100.0, 600.0};
  const double before = held.value()->EstimateSelectivity(query);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(server.Ingest("t", "x", MakeRows(50, 200 + i)).ok());
    ASSERT_TRUE(server.Refresh("t", "x").ok());
  }
  // The held epoch still answers, unchanged by the five flips.
  EXPECT_EQ(held.value()->EstimateSelectivity(query), before);
  auto current = server.CurrentGeneration("t", "x");
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(current.value()->number, 6u);
}

// Re-registration replaces the whole column, so a reader may be inside the
// old column, its table and its generation when they are retired. Every
// served value must still come from one of the registered samples: equal,
// for its query, to a direct build of one of them. Under asan-ubsan this
// is also the use-after-free check for retired columns and tables.
TEST(EpochConcurrencyTest, ReRegistrationRaceServesOnlyRegisteredSamples) {
  LiveStatisticsServer server;
  const EstimatorConfig config =
      ConfigWithBins(EstimatorKind::kEquiWidth, 24);
  constexpr size_t kRegistrations = 50;
  constexpr size_t kReaders = 4;
  const std::vector<RangeQuery> queries = ProbeQueries();

  // answers[s][q]: sample s's direct answer to query q.
  std::vector<std::vector<double>> samples;
  std::vector<std::vector<double>> answers;
  for (size_t s = 0; s <= kRegistrations; ++s) {
    samples.push_back(MakeRows(200 + s, 500 + s));
    auto built = BuildEstimator(samples.back(), kDomain, config);
    ASSERT_TRUE(built.ok());
    answers.emplace_back();
    for (const RangeQuery& query : queries) {
      answers.back().push_back(built.value()->EstimateSelectivity(query));
    }
  }
  ASSERT_TRUE(
      server.RegisterColumn("t", "x", kDomain, config, samples[0]).ok());

  std::atomic<bool> done{false};
  std::vector<std::vector<Observation>> observations(kReaders);
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r]() {
      for (size_t i = 0; !done.load() || i < 200; ++i) {
        const size_t q = (r * 5 + i) % queries.size();
        auto served = server.EstimateDetailed("t", "x", queries[q]);
        ASSERT_TRUE(served.ok());
        observations[r].push_back({q, served.value().value, 0});
      }
    });
  }
  for (size_t s = 1; s <= kRegistrations; ++s) {
    ASSERT_TRUE(
        server.RegisterColumn("t", "x", kDomain, config, samples[s]).ok());
  }
  done.store(true);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(server.num_columns(), 1u);
  size_t checked = 0;
  for (const auto& per_reader : observations) {
    for (const Observation& seen : per_reader) {
      const bool known = std::any_of(
          answers.begin(), answers.end(), [&](const std::vector<double>& a) {
            return a[seen.query] == seen.value;
          });
      EXPECT_TRUE(known) << "query " << seen.query << " served "
                         << seen.value << ", which no registered sample gives";
      ++checked;
    }
  }
  EXPECT_GE(checked, kReaders * 200);
  // The last registration serves.
  auto current = server.CurrentEstimator("t", "x");
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(current.value()->EstimateSelectivity(queries[3]),
            answers[kRegistrations][3]);
}

// Reclamation keeps memory bounded: after 1,000 flips under 4 readers,
// once the readers have left and one more generation is published, only
// the current generation and the one the test holds are still alive.
TEST(EpochConcurrencyTest, RetiredGenerationsAreFreedOnceReadersLeave) {
  LiveServerOptions options;
  options.background_refresh = false;
  LiveStatisticsServer server(std::move(options));
  ASSERT_TRUE(server
                  .RegisterColumn("t", "x", kDomain,
                                  ConfigWithBins(EstimatorKind::kEquiWidth, 16),
                                  MakeRows(300, 4))
                  .ok());
  const std::vector<RangeQuery> queries = ProbeQueries();
  constexpr size_t kFlips = 1000;
  constexpr size_t kReaders = 4;

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r]() {
      for (size_t i = 0; !done.load(); ++i) {
        ASSERT_TRUE(server
                        .EstimateDetailed("t", "x",
                                          queries[(r + i) % queries.size()])
                        .ok());
      }
    });
  }
  std::vector<std::weak_ptr<const LiveGeneration>> seen;
  std::shared_ptr<const LiveGeneration> held;
  for (size_t flip = 0; flip < kFlips; ++flip) {
    if (flip % 10 == 0) {
      ASSERT_TRUE(server.Ingest("t", "x", MakeRows(5, 1000 + flip)).ok());
    }
    ASSERT_TRUE(server.Refresh("t", "x").ok());
    auto current = server.CurrentGeneration("t", "x");
    ASSERT_TRUE(current.ok());
    seen.push_back(current.value());
    if (flip == kFlips / 2) held = current.value();
  }
  done.store(true);
  for (std::thread& reader : readers) reader.join();

  // Quiesced: one more publish reclaims everything retired before it.
  ASSERT_TRUE(server.Refresh("t", "x").ok());
  auto current = server.CurrentGeneration("t", "x");
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(current.value()->number, kFlips + 2);
  size_t alive = 0;
  for (const auto& generation : seen) alive += generation.expired() ? 0 : 1;
  EXPECT_EQ(alive, 1u);  // the held one
  EXPECT_FALSE(seen[kFlips / 2].expired());
  EXPECT_EQ(held->number, kFlips / 2 + 2);
  EXPECT_EQ(EpochPendingRetired(), 0u);
}

// Reader slots are given back when a thread exits and reused by later
// threads: 64 short-lived readers, never more than 8 alive at once, leave
// at most 8 new slots behind.
TEST(EpochConcurrencyTest, ExitedReadersGiveTheirSlotsBack) {
  LiveStatisticsServer server;
  ASSERT_TRUE(server
                  .RegisterColumn("t", "x", kDomain,
                                  ConfigWithBins(EstimatorKind::kEquiWidth, 8),
                                  MakeRows(100, 5))
                  .ok());
  const RangeQuery query{100.0, 400.0};
  const size_t slots_before = EpochReaderSlots();
  constexpr size_t kThreads = 64;
  constexpr size_t kAlive = 8;
  for (size_t wave = 0; wave < kThreads / kAlive; ++wave) {
    std::vector<std::thread> readers;
    for (size_t r = 0; r < kAlive; ++r) {
      readers.emplace_back([&]() {
        for (int i = 0; i < 100; ++i) {
          ASSERT_TRUE(server.EstimateDetailed("t", "x", query).ok());
        }
      });
    }
    for (std::thread& reader : readers) reader.join();
  }
  EXPECT_LE(EpochReaderSlots(), slots_before + kAlive);
  auto stats = server.ColumnStats("t", "x");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().serves, kThreads * 100);
}

}  // namespace
}  // namespace selest
