// Property/metamorphic suite over every factory-constructible estimator:
//
//   * σ̂(a, b) ∈ [0, 1] for arbitrary queries;
//   * σ̂(a, b) is non-decreasing in b (monotonicity);
//   * σ̂(a, m) + σ̂(m, b) ≈ σ̂(a, b) for histogram estimators (additivity
//     of the bin-mass integral);
//   * EstimateSelectivityBatch ≡ per-query EstimateSelectivity,
//     element-wise and exactly (the batch API's core contract);
//   * a batch runs on its calling thread and never waits for the shared
//     pool (only the eval layer fans work out).
#include "src/est/estimator_factory.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/exec/thread_pool.h"
#include "src/query/range_query.h"
#include "src/util/random.h"

namespace selest {
namespace {

const Domain kDomain = ContinuousDomain(0.0, 100.0);

std::vector<double> MixtureSample(size_t n, uint64_t seed) {
  // Two humps plus a uniform floor: enough structure that histograms have
  // uneven bins and kernels have boundary mass, without leaving any region
  // of the domain empty.
  Rng rng(seed);
  std::vector<double> sample;
  sample.reserve(n);
  while (sample.size() < n) {
    const double u = rng.NextDouble();
    double x;
    if (u < 0.4) {
      x = 25.0 + 8.0 * (rng.NextDouble() + rng.NextDouble() - 1.0);
    } else if (u < 0.8) {
      x = 70.0 + 5.0 * (rng.NextDouble() + rng.NextDouble() - 1.0);
    } else {
      x = 100.0 * rng.NextDouble();
    }
    if (x >= kDomain.lo && x <= kDomain.hi) sample.push_back(x);
  }
  return sample;
}

std::vector<RangeQuery> RandomQueries(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<RangeQuery> queries(n);
  for (RangeQuery& q : queries) {
    const double x = kDomain.lo + kDomain.width() * rng.NextDouble();
    const double y = kDomain.lo + kDomain.width() * rng.NextDouble();
    q = {std::min(x, y), std::max(x, y)};
  }
  return queries;
}

const EstimatorKind kAllKinds[] = {
    EstimatorKind::kSampling,   EstimatorKind::kUniform,
    EstimatorKind::kEquiWidth,  EstimatorKind::kEquiDepth,
    EstimatorKind::kMaxDiff,    EstimatorKind::kAverageShifted,
    EstimatorKind::kKernel,     EstimatorKind::kHybrid,
    EstimatorKind::kVOptimal,   EstimatorKind::kAdaptiveKernel,
    EstimatorKind::kWavelet,
};

// The estimators whose estimate is the integral of a piecewise density
// over the query range, for which σ̂ is exactly additive over adjacent
// ranges (up to floating-point association).
bool IsHistogramKind(EstimatorKind kind) {
  switch (kind) {
    case EstimatorKind::kUniform:
    case EstimatorKind::kEquiWidth:
    case EstimatorKind::kEquiDepth:
    case EstimatorKind::kMaxDiff:
    case EstimatorKind::kAverageShifted:
    case EstimatorKind::kVOptimal:
    case EstimatorKind::kWavelet:
      return true;
    default:
      return false;
  }
}

std::unique_ptr<SelectivityEstimator> Build(EstimatorKind kind) {
  static const std::vector<double>* sample =
      new std::vector<double>(MixtureSample(1500, 99));
  EstimatorConfig config;
  config.kind = kind;
  auto est = BuildEstimator(*sample, kDomain, config);
  if (!est.ok()) {
    ADD_FAILURE() << EstimatorKindName(kind)
                  << " failed to build: " << est.status().ToString();
    return nullptr;
  }
  return std::move(est).value();
}

class EstimatorPropertyTest : public ::testing::TestWithParam<EstimatorKind> {};

TEST_P(EstimatorPropertyTest, SelectivityStaysInUnitInterval) {
  const auto est = Build(GetParam());
  ASSERT_NE(est, nullptr);
  for (const RangeQuery& q : RandomQueries(300, 1)) {
    const double s = est->EstimateSelectivity(q.a, q.b);
    EXPECT_GE(s, 0.0) << est->name() << " on [" << q.a << ", " << q.b << "]";
    EXPECT_LE(s, 1.0) << est->name() << " on [" << q.a << ", " << q.b << "]";
  }
}

TEST_P(EstimatorPropertyTest, MonotoneInUpperBound) {
  const auto est = Build(GetParam());
  ASSERT_NE(est, nullptr);
  Rng rng(2);
  for (int trial = 0; trial < 100; ++trial) {
    const double a = kDomain.lo + 0.5 * kDomain.width() * rng.NextDouble();
    double b = a;
    double previous = est->EstimateSelectivity(a, b);
    for (int step = 0; step < 12; ++step) {
      b = std::min(kDomain.hi, b + kDomain.width() / 16.0 * rng.NextDouble());
      const double current = est->EstimateSelectivity(a, b);
      // Exactly monotone implementations pass with 0 slack; the tolerance
      // only absorbs last-bit rounding in the kernel quadrature tables.
      EXPECT_GE(current, previous - 1e-12)
          << est->name() << " shrank on [" << a << ", " << b << "]";
      previous = current;
    }
  }
}

TEST_P(EstimatorPropertyTest, HistogramSelectivityIsAdditive) {
  if (!IsHistogramKind(GetParam())) {
    GTEST_SKIP() << "additivity only holds for density-integral estimators";
  }
  const auto est = Build(GetParam());
  ASSERT_NE(est, nullptr);
  Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    const double x = kDomain.lo + kDomain.width() * rng.NextDouble();
    const double y = kDomain.lo + kDomain.width() * rng.NextDouble();
    const double a = std::min(x, y), b = std::max(x, y);
    const double m = a + (b - a) * rng.NextDouble();
    const double whole = est->EstimateSelectivity(a, b);
    const double split =
        est->EstimateSelectivity(a, m) + est->EstimateSelectivity(m, b);
    EXPECT_NEAR(split, whole, 1e-9)
        << est->name() << " at a=" << a << " m=" << m << " b=" << b;
  }
}

TEST_P(EstimatorPropertyTest, BatchMatchesPerQueryExactly) {
  const auto est = Build(GetParam());
  ASSERT_NE(est, nullptr);
  const auto queries = RandomQueries(500, 4);
  std::vector<double> batch(queries.size());
  est->EstimateSelectivityBatch(queries, batch);
  for (size_t i = 0; i < queries.size(); ++i) {
    const double single = est->EstimateSelectivity(queries[i]);
    // Exact equality: batching must never change a value.
    EXPECT_EQ(batch[i], single)
        << est->name() << " query " << i << " [" << queries[i].a << ", "
        << queries[i].b << "]";
  }
}

TEST_P(EstimatorPropertyTest, BatchHandlesEmptySpan) {
  const auto est = Build(GetParam());
  ASSERT_NE(est, nullptr);
  est->EstimateSelectivityBatch({}, {});  // must be a no-op, not a crash
}

// Parks every worker of a pool until Release(), so any work scheduled on
// the pool meanwhile cannot start.
class PoolHold {
 public:
  explicit PoolHold(ThreadPool& pool) : workers_(pool.num_threads()) {
    for (size_t i = 0; i < workers_; ++i) {
      pool.Schedule([this] {
        std::unique_lock<std::mutex> lock(mu_);
        ++parked_;
        cv_.notify_all();
        cv_.wait(lock, [this] { return released_; });
        --parked_;
        cv_.notify_all();
      });
    }
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return parked_ == workers_; });
  }

  // Waits until every worker has left, since the parked tasks use `this`.
  ~PoolHold() {
    Release();
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return parked_ == 0; });
  }

  PoolHold(const PoolHold&) = delete;
  PoolHold& operator=(const PoolHold&) = delete;

  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  const size_t workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  size_t parked_ = 0;
  bool released_ = false;
};

TEST(BatchOnCallingThreadTest, BatchesFinishWhileEveryPoolWorkerIsHeld) {
  // Every factory kind, the three learners after some feedback, and a
  // guarded chain.
  std::vector<std::unique_ptr<SelectivityEstimator>> estimators;
  for (EstimatorKind kind : kAllKinds) estimators.push_back(Build(kind));
  for (EstimatorKind kind :
       {EstimatorKind::kFeedback, EstimatorKind::kReconstructed,
        EstimatorKind::kOnlineLearning}) {
    auto learner = Build(kind);
    ASSERT_NE(learner, nullptr);
    for (const RangeQuery& q : RandomQueries(16, 5)) {
      ASSERT_TRUE(learner->ObserveTrueSelectivity(q, 0.5 * (q.b - q.a) /
                                                         kDomain.width())
                      .ok());
    }
    estimators.push_back(std::move(learner));
  }
  EstimatorConfig hybrid;
  hybrid.kind = EstimatorKind::kHybrid;
  auto guarded =
      BuildGuardedEstimator(MixtureSample(1500, 99), kDomain, hybrid);
  ASSERT_TRUE(guarded.ok());
  estimators.push_back(std::move(guarded.value().estimator));

  const auto queries = RandomQueries(4096, 6);
  std::vector<double> batch(queries.size());
  PoolHold hold(ThreadPool::Default());
  for (const auto& est : estimators) {
    ASSERT_NE(est, nullptr);
    // The batch runs on a thread of its own so that a batch stuck waiting
    // for the held pool fails this test instead of hanging it.
    std::packaged_task<void()> task([&] {
      est->EstimateSelectivityBatch(queries, batch);
    });
    std::future<void> done = task.get_future();
    std::thread caller(std::move(task));
    const bool finished = done.wait_for(std::chrono::seconds(30)) ==
                          std::future_status::ready;
    if (!finished) hold.Release();
    caller.join();
    ASSERT_TRUE(finished) << est->name()
                          << " waited for the shared pool's workers";
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_EQ(batch[i], est->EstimateSelectivity(queries[i]))
          << est->name() << " query " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, EstimatorPropertyTest, ::testing::ValuesIn(kAllKinds),
    [](const ::testing::TestParamInfo<EstimatorKind>& info) {
      std::string name = EstimatorKindName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace selest
