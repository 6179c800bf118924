// Determinism and robustness of the exec layer and the parallel runner:
// reports must be bit-identical at every thread count, and the pool must
// survive task exceptions and degenerate chunkings.
#include "src/eval/parallel_experiment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/data/distribution.h"
#include "src/exec/parallel_for.h"
#include "src/exec/thread_pool.h"
#include "src/util/random.h"

namespace selest {
namespace {

Dataset MakeData(uint64_t seed) {
  Rng rng(seed);
  const Domain domain = BitDomain(16);
  const NormalDistribution dist(0.5 * domain.hi, domain.width() / 8.0);
  return GenerateDataset("n", dist, 20000, domain, rng);
}

// Every field, compared exactly: the determinism contract is bit-identity,
// not tolerance-identity.
void ExpectBitIdentical(const ErrorReport& a, const ErrorReport& b) {
  EXPECT_EQ(a.mean_relative_error, b.mean_relative_error);
  EXPECT_EQ(a.mean_absolute_error, b.mean_absolute_error);
  EXPECT_EQ(a.max_relative_error, b.max_relative_error);
  EXPECT_EQ(a.p50_relative_error, b.p50_relative_error);
  EXPECT_EQ(a.p90_relative_error, b.p90_relative_error);
  EXPECT_EQ(a.p99_relative_error, b.p99_relative_error);
  EXPECT_EQ(a.skipped_empty, b.skipped_empty);
  EXPECT_EQ(a.evaluated, b.evaluated);
}

std::vector<EstimatorConfig> SweepConfigs() {
  std::vector<EstimatorConfig> configs;
  EstimatorConfig ewh;
  ewh.kind = EstimatorKind::kEquiWidth;
  configs.push_back(ewh);
  EstimatorConfig kernel;
  kernel.kind = EstimatorKind::kKernel;
  kernel.boundary = BoundaryPolicy::kBoundaryKernel;
  configs.push_back(kernel);
  EstimatorConfig hybrid;
  hybrid.kind = EstimatorKind::kHybrid;
  hybrid.boundary = BoundaryPolicy::kBoundaryKernel;
  configs.push_back(hybrid);
  EstimatorConfig ash;
  ash.kind = EstimatorKind::kAverageShifted;
  configs.push_back(ash);
  // The costliest builds come last, so the sweep's longest-first schedule
  // differs from caller order.
  EstimatorConfig ewh_dpi = ewh;
  ewh_dpi.smoothing = SmoothingRule::kDirectPlugIn;
  configs.push_back(ewh_dpi);
  EstimatorConfig kernel_dpi = kernel;
  kernel_dpi.smoothing = SmoothingRule::kDirectPlugIn;
  configs.push_back(kernel_dpi);
  EstimatorConfig v_optimal;
  v_optimal.kind = EstimatorKind::kVOptimal;
  configs.push_back(v_optimal);
  return configs;
}

// The per-query serial reference, at caller index: BuildEstimator, then
// Evaluate with one EstimateSelectivity call per query.
std::vector<StatusOr<ErrorReport>> PerQueryReference(
    const ExperimentSetup& setup, const std::vector<EstimatorConfig>& configs) {
  const GroundTruth truth(*setup.data);
  std::vector<StatusOr<ErrorReport>> reference;
  for (const EstimatorConfig& config : configs) {
    auto estimator = BuildEstimator(setup.sample, setup.domain(), config);
    if (!estimator.ok()) {
      reference.push_back(estimator.status());
      continue;
    }
    reference.push_back(Evaluate(*estimator.value(), setup.queries, truth));
  }
  return reference;
}

TEST(ExecParallelTest, ReportsBitIdenticalAcrossThreadCounts) {
  const Dataset data = MakeData(11);
  ProtocolConfig protocol;
  protocol.sample_size = 1000;
  protocol.num_queries = 400;
  const ExperimentSetup setup = MakeSetup(data, protocol);
  const auto configs = SweepConfigs();

  // Every thread count, threads = 1 included, runs the sweep's shared
  // phases and must reproduce the per-query reference.
  const auto baseline = PerQueryReference(setup, configs);
  for (const auto& report : baseline) ASSERT_TRUE(report.ok());

  for (size_t threads : {1u, 2u, 8u}) {
    ParallelExecOptions options;
    options.threads = threads;
    const auto reports = RunConfigsParallel(setup, configs, options);
    ASSERT_EQ(reports.size(), configs.size());
    for (size_t c = 0; c < configs.size(); ++c) {
      ASSERT_TRUE(reports[c].ok()) << "threads=" << threads;
      ExpectBitIdentical(*baseline[c], *reports[c]);
    }
  }
}

TEST(ExecParallelTest, RunConfigMatchesSerialSweep) {
  const Dataset data = MakeData(12);
  ProtocolConfig protocol;
  protocol.sample_size = 500;
  protocol.num_queries = 200;
  const ExperimentSetup setup = MakeSetup(data, protocol);
  EstimatorConfig config;
  config.kind = EstimatorKind::kKernel;
  config.boundary = BoundaryPolicy::kBoundaryKernel;

  const auto via_default = RunConfig(setup, config);
  const std::vector<EstimatorConfig> configs{config};
  const auto via_serial =
      RunConfigsParallel(setup, configs, ParallelExecOptions{.threads = 1});
  ASSERT_TRUE(via_default.ok());
  ASSERT_EQ(via_serial.size(), 1u);
  ASSERT_TRUE(via_serial[0].ok());
  ExpectBitIdentical(*via_default, *via_serial[0]);
}

TEST(ExecParallelTest, SweepPropagatesPerConfigBuildFailures) {
  const Dataset data = MakeData(13);
  ProtocolConfig protocol;
  protocol.sample_size = 200;
  protocol.num_queries = 50;
  const ExperimentSetup setup = MakeSetup(data, protocol);

  // The failing config sits between the two h-DPI configs, which the
  // sweep runs first; every status must still land at its caller index.
  std::vector<EstimatorConfig> configs;
  EstimatorConfig good;
  good.kind = EstimatorKind::kEquiWidth;
  configs.push_back(good);
  EstimatorConfig ewh_dpi = good;
  ewh_dpi.smoothing = SmoothingRule::kDirectPlugIn;
  configs.push_back(ewh_dpi);
  EstimatorConfig bad;  // negative fixed bandwidth cannot build
  bad.kind = EstimatorKind::kKernel;
  bad.smoothing = SmoothingRule::kFixed;
  bad.fixed_smoothing = -1.0;
  configs.push_back(bad);
  EstimatorConfig kernel_dpi;
  kernel_dpi.kind = EstimatorKind::kKernel;
  kernel_dpi.smoothing = SmoothingRule::kDirectPlugIn;
  configs.push_back(kernel_dpi);

  const auto reference = PerQueryReference(setup, configs);
  ASSERT_FALSE(reference[2].ok());
  for (size_t threads : {1u, 2u, 8u}) {
    ParallelExecOptions options;
    options.threads = threads;
    const auto reports = RunConfigsParallel(setup, configs, options);
    ASSERT_EQ(reports.size(), configs.size());
    for (size_t c = 0; c < configs.size(); ++c) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " config=" + std::to_string(c));
      ASSERT_EQ(reports[c].ok(), c != 2);
      if (reports[c].ok()) {
        ExpectBitIdentical(*reference[c], *reports[c]);
      } else {
        EXPECT_EQ(reports[c].status().code(), StatusCode::kInvalidArgument);
        EXPECT_EQ(reports[c].status().ToString(),
                  reference[c].status().ToString());
      }
    }
  }
}

TEST(SplitRangeTest, HandlesDegenerateChunkCounts) {
  EXPECT_TRUE(SplitRange(0, 4).empty());
  EXPECT_TRUE(SplitRange(0, 0).empty());

  // A chunk count of zero behaves like one chunk.
  const auto one = SplitRange(10, 0);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].first, 0u);
  EXPECT_EQ(one[0].second, 10u);

  // Oversized chunk counts clamp to one element per chunk.
  const auto clamped = SplitRange(10, 1000);
  ASSERT_EQ(clamped.size(), 10u);

  // Chunks tile [0, n) exactly, in order, with sizes differing by <= 1.
  for (size_t n : {1u, 7u, 64u, 1000u}) {
    for (size_t k : {1u, 3u, 8u, 1001u}) {
      const auto chunks = SplitRange(n, k);
      size_t expected_begin = 0;
      size_t min_size = n, max_size = 0;
      for (const auto& [begin, end] : chunks) {
        EXPECT_EQ(begin, expected_begin);
        EXPECT_LT(begin, end);
        min_size = std::min(min_size, end - begin);
        max_size = std::max(max_size, end - begin);
        expected_begin = end;
      }
      EXPECT_EQ(expected_begin, n);
      EXPECT_LE(max_size - min_size, 1u);
    }
  }
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(1000);
  ParallelFor(&pool, touched.size(), 16,
              [&](size_t begin, size_t end, size_t /*chunk*/) {
                for (size_t i = begin; i < end; ++i) touched[i]++;
              });
  for (const auto& count : touched) EXPECT_EQ(count.load(), 1);
}

TEST(ParallelForTest, EmptyRangeAndOversizedChunksAreNoOps) {
  ThreadPool pool(2);
  int calls = 0;
  ParallelFor(&pool, 0, 8,
              [&](size_t, size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);

  std::vector<std::atomic<int>> touched(3);
  ParallelFor(&pool, touched.size(), 500,
              [&](size_t begin, size_t end, size_t /*chunk*/) {
                for (size_t i = begin; i < end; ++i) touched[i]++;
              });
  for (const auto& count : touched) EXPECT_EQ(count.load(), 1);
}

TEST(ParallelForTest, RethrowsLowestChunkExceptionAndPoolSurvives) {
  ThreadPool pool(4);
  // Several chunks throw; the rethrown exception must be chunk 2's (the
  // lowest throwing index), deterministically.
  auto throwing_body = [](size_t /*begin*/, size_t /*end*/, size_t chunk) {
    if (chunk >= 2 && chunk % 2 == 0) {
      throw std::runtime_error("chunk " + std::to_string(chunk));
    }
  };
  try {
    ParallelFor(&pool, 100, 10, throwing_body);
    FAIL() << "expected ParallelFor to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk 2");
  }

  // The pool is still fully usable after the failed fan-out.
  std::atomic<size_t> sum{0};
  ParallelFor(&pool, 100, 10,
              [&](size_t begin, size_t end, size_t /*chunk*/) {
                for (size_t i = begin; i < end; ++i) sum += i;
              });
  EXPECT_EQ(sum.load(), 4950u);
}

TEST(ParallelForTest, SerialPathRunsEveryChunkThenRethrowsLowest) {
  // Without a pool the chunks run in order on the calling thread; a throw
  // must not skip the chunks after it, and chunk 1's exception (the
  // lowest throwing index) surfaces once they have all run.
  std::vector<int> ran(5, 0);
  try {
    ParallelFor(nullptr, ran.size(), ran.size(),
                [&](size_t /*begin*/, size_t /*end*/, size_t chunk) {
                  ++ran[chunk];
                  if (chunk == 1 || chunk == 3) {
                    throw std::runtime_error("chunk " + std::to_string(chunk));
                  }
                });
    FAIL() << "expected ParallelFor to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk 1");
  }
  EXPECT_EQ(ran, std::vector<int>(5, 1));
}

TEST(ParallelForTest, NestedFanOutRunsSeriallyWithoutDeadlock) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> touched(64);
  ParallelFor(&pool, 8, 8, [&](size_t begin, size_t end, size_t /*chunk*/) {
    for (size_t outer = begin; outer < end; ++outer) {
      // A nested fan-out from inside a chunk (worker thread or the caller
      // running chunk 0) must degrade to serial, not deadlock.
      ParallelFor(&pool, 8, 8, [&](size_t b, size_t e, size_t /*c*/) {
        for (size_t inner = b; inner < e; ++inner) {
          touched[outer * 8 + inner]++;
        }
      });
    }
  });
  for (const auto& count : touched) EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, ScheduleSurvivesThrowingTasks) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 10; ++i) {
    pool.Schedule([&ran] {
      ++ran;
      throw std::runtime_error("dropped by contract");
    });
  }
  // A fan-out after the throwing tasks proves the workers are all alive.
  std::atomic<int> chunks_run{0};
  ParallelFor(&pool, 16, 16,
              [&](size_t, size_t, size_t) { ++chunks_run; });
  EXPECT_EQ(chunks_run.load(), 16);
  EXPECT_EQ(ran.load(), 10);
}

TEST(ThreadPoolTest, DefaultThreadCountIsPositive) {
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1u);
  EXPECT_GE(ThreadPool::Default().num_threads(), 1u);
}

TEST(ThreadPoolTest, DefaultThreadCountCapsTheOverride) {
  // Reads DefaultThreadCount() only and creates no pool, so the oversized
  // value never starts a thread.
  const char* env = std::getenv("SELEST_THREADS");
  const bool was_set = env != nullptr;
  const std::string saved = was_set ? env : "";
  const size_t fallback = std::max(1u, std::thread::hardware_concurrency());

  setenv("SELEST_THREADS", "100000", /*overwrite=*/1);
  EXPECT_EQ(ThreadPool::DefaultThreadCount(), ThreadPool::kMaxThreads);
  setenv("SELEST_THREADS", "64", 1);
  EXPECT_EQ(ThreadPool::DefaultThreadCount(), 64u);
  setenv("SELEST_THREADS", "abc", 1);
  EXPECT_EQ(ThreadPool::DefaultThreadCount(), fallback);

  if (was_set) {
    setenv("SELEST_THREADS", saved.c_str(), 1);
  } else {
    unsetenv("SELEST_THREADS");
  }
}

}  // namespace
}  // namespace selest
