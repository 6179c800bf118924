// The streaming-build bit-identity contract (DESIGN.md §13): for every
// estimator kind, building from a chunk stream must equal building from
// the materialized rows — byte for byte, via estimator snapshots — for
// every chunk size, including chunk 1 and a misaligned final chunk.
#include "src/est/streaming_build.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "src/data/column_file.h"
#include "src/data/column_source.h"
#include "src/data/dataset.h"
#include "src/data/distribution.h"
#include "src/data/domain.h"
#include "src/est/equi_width_histogram.h"
#include "src/est/estimator_snapshot.h"
#include "src/query/range_query.h"
#include "src/util/random.h"

namespace selest {
namespace {

constexpr EstimatorKind kAllKinds[] = {
    EstimatorKind::kSampling,       EstimatorKind::kUniform,
    EstimatorKind::kEquiWidth,      EstimatorKind::kEquiDepth,
    EstimatorKind::kMaxDiff,        EstimatorKind::kAverageShifted,
    EstimatorKind::kKernel,         EstimatorKind::kHybrid,
    EstimatorKind::kVOptimal,       EstimatorKind::kAdaptiveKernel,
    EstimatorKind::kWavelet,        EstimatorKind::kFeedback,
    EstimatorKind::kReconstructed,  EstimatorKind::kOnlineLearning,
};

// 500 rows: a misaligned final chunk for every chunk size below that is
// not a divisor of 500 (64 → tail of 52, 4096/whole-file → single chunk).
Dataset TestData() {
  Rng rng(21);
  return GenerateDataset("normal", NormalDistribution(512.0, 120.0), 500,
                         BitDomain(10), rng);
}

std::vector<uint8_t> MustSnapshot(const SelectivityEstimator& estimator) {
  auto bytes = SnapshotEstimator(estimator);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? *bytes : std::vector<uint8_t>{};
}

TEST(StreamingBuildTest, EveryKindBitIdenticalToInMemoryBuild) {
  const Dataset data = TestData();
  for (const EstimatorKind kind : kAllKinds) {
    EstimatorConfig config;
    config.kind = kind;
    auto in_memory = BuildEstimator(data.values(), data.domain(), config);
    ASSERT_TRUE(in_memory.ok())
        << EstimatorKindName(kind) << ": " << in_memory.status().ToString();
    const std::vector<uint8_t> expected = MustSnapshot(**in_memory);

    // Reservoir capacity >= rows, so the streaming sample is the whole
    // column in insertion order and the builds must agree exactly.
    StreamingBuildOptions options;
    options.sample_size = 2000;
    for (const size_t chunk_rows : {1ul, 64ul, 500ul, 4096ul}) {
      InMemoryColumnSource source(data, chunk_rows);
      auto streamed = BuildEstimatorStreaming(source, config, options);
      ASSERT_TRUE(streamed.ok())
          << EstimatorKindName(kind) << " chunk=" << chunk_rows << ": "
          << streamed.status().ToString();
      EXPECT_EQ(MustSnapshot(*streamed->estimator), expected)
          << EstimatorKindName(kind) << " chunk=" << chunk_rows;
      EXPECT_EQ(streamed->rows_seen, data.size());
    }
  }
}

TEST(StreamingBuildTest, ChunkSizeInvariantPastReservoirCapacity) {
  // More rows than the reservoir holds: streaming no longer equals the
  // in-memory build over all rows, but chunk boundaries must still not
  // leak into the result — any chunking yields the identical estimator.
  Rng rng(33);
  const Dataset data = GenerateDataset(
      "normal", NormalDistribution(512.0, 100.0), 3000, BitDomain(10), rng);
  StreamingBuildOptions options;
  options.sample_size = 128;
  for (const EstimatorKind kind : kAllKinds) {
    EstimatorConfig config;
    config.kind = kind;
    InMemoryColumnSource reference_source(data, 4096);
    auto reference = BuildEstimatorStreaming(reference_source, config, options);
    ASSERT_TRUE(reference.ok())
        << EstimatorKindName(kind) << ": " << reference.status().ToString();
    const std::vector<uint8_t> expected = MustSnapshot(*reference->estimator);
    for (const size_t chunk_rows : {1ul, 64ul, 333ul, 3000ul}) {
      InMemoryColumnSource source(data, chunk_rows);
      auto streamed = BuildEstimatorStreaming(source, config, options);
      ASSERT_TRUE(streamed.ok());
      EXPECT_EQ(MustSnapshot(*streamed->estimator), expected)
          << EstimatorKindName(kind) << " chunk=" << chunk_rows;
      EXPECT_EQ(streamed->sample, reference->sample);
    }
  }
}

TEST(StreamingBuildTest, PathAssignmentMatchesContract) {
  EXPECT_EQ(StreamingPathFor(EstimatorKind::kUniform),
            StreamingBuildPath::kDomainOnly);
  EXPECT_EQ(StreamingPathFor(EstimatorKind::kEquiWidth),
            StreamingBuildPath::kOnePassFold);
  for (const EstimatorKind kind :
       {EstimatorKind::kSampling, EstimatorKind::kEquiDepth,
        EstimatorKind::kMaxDiff, EstimatorKind::kAverageShifted,
        EstimatorKind::kKernel, EstimatorKind::kHybrid,
        EstimatorKind::kVOptimal, EstimatorKind::kAdaptiveKernel,
        EstimatorKind::kWavelet, EstimatorKind::kFeedback,
        EstimatorKind::kReconstructed, EstimatorKind::kOnlineLearning}) {
    EXPECT_EQ(StreamingPathFor(kind), StreamingBuildPath::kReservoirSample)
        << EstimatorKindName(kind);
  }
}

TEST(StreamingBuildTest, EquiWidthFoldCountsEveryRow) {
  // The one-pass fold's whole advantage: counts come from ALL rows, not
  // the reservoir sample. total_count of the folded histogram equals the
  // full row count even when the reservoir is tiny.
  Rng rng(5);
  const Dataset data = GenerateDataset(
      "uniform", UniformDistribution(0.0, 1024.0), 2500, BitDomain(10), rng);
  StreamingBuildOptions options;
  options.sample_size = 100;
  EstimatorConfig config;
  config.kind = EstimatorKind::kEquiWidth;
  InMemoryColumnSource source(data, 64);
  auto streamed = BuildEstimatorStreaming(source, config, options);
  ASSERT_TRUE(streamed.ok());
  EXPECT_EQ(streamed->path, StreamingBuildPath::kOnePassFold);
  EXPECT_EQ(streamed->rows_seen, 2500u);
  const auto* histogram =
      dynamic_cast<const EquiWidthHistogram*>(streamed->estimator.get());
  ASSERT_NE(histogram, nullptr);
  EXPECT_EQ(histogram->bins().total_count(), 2500.0);
}

TEST(StreamingBuildTest, FixedSmoothingEquiWidthSkipsSamplingPass) {
  const Dataset data = TestData();
  EstimatorConfig config;
  config.kind = EstimatorKind::kEquiWidth;
  config.smoothing = SmoothingRule::kFixed;
  config.fixed_smoothing = 32.0;
  InMemoryColumnSource source(data, 100);
  auto streamed = BuildEstimatorStreaming(source, config, {});
  ASSERT_TRUE(streamed.ok());
  EXPECT_TRUE(streamed->sample.empty());  // single pass, no reservoir
  auto in_memory = BuildEstimator(data.values(), data.domain(), config);
  ASSERT_TRUE(in_memory.ok());
  EXPECT_EQ(MustSnapshot(*streamed->estimator), MustSnapshot(**in_memory));
}

TEST(StreamingBuildTest, EmptySourceFailsExceptUniform) {
  const std::vector<double> none;
  InMemoryColumnSource source("empty", BitDomain(8), none, 64);
  EstimatorConfig config;
  config.kind = EstimatorKind::kEquiDepth;
  EXPECT_EQ(BuildEstimatorStreaming(source, config, {}).status().code(),
            StatusCode::kInvalidArgument);
  config.kind = EstimatorKind::kEquiWidth;
  EXPECT_EQ(BuildEstimatorStreaming(source, config, {}).status().code(),
            StatusCode::kInvalidArgument);
  config.kind = EstimatorKind::kUniform;
  EXPECT_TRUE(BuildEstimatorStreaming(source, config, {}).ok());
}

TEST(StreamingBuildTest, NonFiniteRowIsInvalidArgument) {
  const std::vector<double> rows = {1.0, 2.0,
                                    std::numeric_limits<double>::quiet_NaN()};
  InMemoryColumnSource source("nan", ContinuousDomain(0.0, 4.0), rows, 2);
  EstimatorConfig config;
  config.kind = EstimatorKind::kSampling;
  EXPECT_EQ(BuildEstimatorStreaming(source, config, {}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(StreamingBuildTest, MmapSourceBuildsIdenticallyToInMemory) {
  const Dataset data = TestData();
  const std::string path =
      std::string(::testing::TempDir()) + "/stream_build_col.bin";
  ASSERT_TRUE(
      WriteColumnFile(path, data.name(), data.domain(), data.values()).ok());
  EstimatorConfig config;
  config.kind = EstimatorKind::kEquiWidth;
  InMemoryColumnSource in_memory_source(data, 64);
  auto expected = BuildEstimatorStreaming(in_memory_source, config, {});
  ASSERT_TRUE(expected.ok());
  for (const size_t chunk_rows : {1ul, 64ul, 4096ul}) {
    auto mapped = MmapColumnSource::Open(path, chunk_rows);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    auto streamed = BuildEstimatorStreaming(**mapped, config, {});
    ASSERT_TRUE(streamed.ok());
    EXPECT_EQ(MustSnapshot(*streamed->estimator),
              MustSnapshot(*expected->estimator))
        << "chunk=" << chunk_rows;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace selest
