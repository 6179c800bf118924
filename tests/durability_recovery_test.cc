// The recovery manager: WAL replay → pre-crash column state. Covers the
// full-replay path, the snapshot fast path proven by the mark's CRC, the
// unproven-mark degradation (crash between snapshot Put and mark append),
// the non-mergeable contract, the feedback ring kept from the log, and the
// record codecs.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "src/catalog/snapshot_store.h"
#include "src/data/domain.h"
#include "src/durability/recovery_manager.h"
#include "src/durability/wal.h"
#include "src/est/estimator_factory.h"
#include "src/est/estimator_snapshot.h"
#include "src/util/random.h"
#include "src/util/status.h"

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

std::vector<uint8_t> SnapshotBytes(const SelectivityEstimator& estimator) {
  auto bytes = SnapshotEstimator(estimator);
  EXPECT_TRUE(bytes.ok());
  return bytes.ok() ? bytes.value() : std::vector<uint8_t>{};
}

TEST(RecoveryCodecTest, SnapshotMarkRoundTrips) {
  const std::vector<uint8_t> bytes = EncodeSnapshotMark(42, 7, 0xDEADBEEF);
  auto mark = DecodeSnapshotMark(bytes);
  ASSERT_TRUE(mark.ok());
  EXPECT_EQ(mark.value().covered_sequence, 42u);
  EXPECT_EQ(mark.value().generation, 7u);
  EXPECT_EQ(mark.value().snapshot_crc, 0xDEADBEEFu);

  std::vector<uint8_t> trailing = bytes;
  trailing.push_back(0);
  EXPECT_EQ(DecodeSnapshotMark(trailing).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(
      DecodeSnapshotMark(std::vector<uint8_t>(bytes.begin(), bytes.end() - 1))
          .ok());
}

TEST(RecoveryCodecTest, RowBatchRoundTrips) {
  const std::vector<double> rows = {1.5, -3.25, 999.0};
  auto decoded = DecodeRowBatch(EncodeRowBatch(rows));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), rows);

  auto empty = DecodeRowBatch(EncodeRowBatch(std::vector<double>{}));
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().empty());

  std::vector<uint8_t> trailing = EncodeRowBatch(rows);
  trailing.push_back(0);
  EXPECT_EQ(DecodeRowBatch(trailing).status().code(),
            StatusCode::kInvalidArgument);
}

// The kFeedback payload is three f64s. Truncation is kOutOfRange and
// trailing bytes kInvalidArgument, as for every record (DESIGN.md §8).
TEST(RecoveryCodecTest, FeedbackRoundTrips) {
  const FeedbackObservation observation{{12.5, 80.25}, 0.375};
  const std::vector<uint8_t> bytes = EncodeFeedback(observation);
  EXPECT_EQ(bytes.size(), 24u);
  auto decoded = DecodeFeedback(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().query.a, 12.5);
  EXPECT_EQ(decoded.value().query.b, 80.25);
  EXPECT_EQ(decoded.value().true_selectivity, 0.375);

  for (size_t keep = 0; keep < bytes.size(); ++keep) {
    EXPECT_EQ(DecodeFeedback(std::vector<uint8_t>(bytes.begin(),
                                                  bytes.begin() + keep))
                  .status()
                  .code(),
              StatusCode::kOutOfRange)
        << keep;
  }
  std::vector<uint8_t> trailing = bytes;
  trailing.push_back(0);
  EXPECT_EQ(DecodeFeedback(trailing).status().code(),
            StatusCode::kInvalidArgument);
}

class RecoveryTest : public testing::Test {
 protected:
  // A WAL holding a registration and two ingest batches (sequences 1-3).
  std::unique_ptr<WriteAheadLog> MakeLog(const std::string& dir) {
    auto wal = WriteAheadLog::Open(dir);
    EXPECT_TRUE(wal.ok());
    EXPECT_TRUE(wal.value()
                    ->Append(WalRecordType::kRegister, EncodeRowBatch(reg_))
                    .ok());
    EXPECT_TRUE(wal.value()
                    ->Append(WalRecordType::kIngest, EncodeRowBatch(batch1_))
                    .ok());
    EXPECT_TRUE(wal.value()
                    ->Append(WalRecordType::kIngest, EncodeRowBatch(batch2_))
                    .ok());
    return std::move(wal).value();
  }

  // The pre-crash accumulator: build from the registration rows, fold both
  // batches in order.
  std::unique_ptr<SelectivityEstimator> Reference(
      const EstimatorConfig& config) {
    auto built = BuildEstimator(reg_, kDomain, config);
    EXPECT_TRUE(built.ok());
    EXPECT_TRUE(built.value()->FoldRows(batch1_).ok());
    EXPECT_TRUE(built.value()->FoldRows(batch2_).ok());
    return std::move(built).value();
  }

  const std::vector<double> reg_ = MakeRows(300, 1);
  const std::vector<double> batch1_ = MakeRows(50, 2);
  const std::vector<double> batch2_ = MakeRows(70, 3);
};

TEST_F(RecoveryTest, FullReplayIsBitIdenticalToPreCrashState) {
  const EstimatorConfig config = ConfigFor(EstimatorKind::kEquiWidth, 16);
  const auto wal = MakeLog(FreshDir("recovery_full_replay"));
  const RecoveryManager manager(nullptr);
  const CatalogKey key{"t", "x", FingerprintConfig(config)};
  auto recovered = manager.Recover(key, *wal, kDomain, config);
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE(recovered.value().used_snapshot);
  EXPECT_EQ(recovered.value().total_rows, 420u);
  EXPECT_EQ(recovered.value().last_sequence, 3u);
  EXPECT_EQ(recovered.value().registration_rows, reg_);
  ASSERT_EQ(recovered.value().ingest_batches.size(), 2u);
  ASSERT_NE(recovered.value().accumulator, nullptr);
  EXPECT_EQ(SnapshotBytes(*recovered.value().accumulator),
            SnapshotBytes(*Reference(config)));
}

TEST_F(RecoveryTest, ProvenSnapshotMarkEnablesTailReplay) {
  const EstimatorConfig config = ConfigFor(EstimatorKind::kEquiWidth, 16);
  const CatalogKey key{"t", "x", FingerprintConfig(config)};
  SnapshotStore store(FreshDir("recovery_fastpath_store"));
  auto wal = MakeLog(FreshDir("recovery_fastpath_wal"));

  // Snapshot the state as of sequence 2 (registration + batch 1), then
  // mark it with the file's CRC — the Put-then-mark publish order.
  auto covered = BuildEstimator(reg_, kDomain, config);
  ASSERT_TRUE(covered.ok());
  ASSERT_TRUE(covered.value()->FoldRows(batch1_).ok());
  uint32_t crc = 0;
  ASSERT_TRUE(store.Put(key, *covered.value(), &crc).ok());
  ASSERT_TRUE(
      wal->Append(WalRecordType::kSnapshotMark, EncodeSnapshotMark(2, 2, crc))
          .ok());

  const RecoveryManager manager(&store);
  auto recovered = manager.Recover(key, *wal, kDomain, config);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(recovered.value().used_snapshot);
  EXPECT_EQ(recovered.value().snapshot_sequence, 2u);
  EXPECT_EQ(recovered.value().last_generation, 2u);
  // Snapshot + tail fold lands on the same bits as the full replay.
  ASSERT_NE(recovered.value().accumulator, nullptr);
  EXPECT_EQ(SnapshotBytes(*recovered.value().accumulator),
            SnapshotBytes(*Reference(config)));
}

TEST_F(RecoveryTest, UnprovenMarkDegradesToFullReplay) {
  const EstimatorConfig config = ConfigFor(EstimatorKind::kEquiWidth, 16);
  const CatalogKey key{"t", "x", FingerprintConfig(config)};
  SnapshotStore store(FreshDir("recovery_unproven_store"));
  auto wal = MakeLog(FreshDir("recovery_unproven_wal"));

  auto covered = BuildEstimator(reg_, kDomain, config);
  ASSERT_TRUE(covered.ok());
  ASSERT_TRUE(covered.value()->FoldRows(batch1_).ok());
  uint32_t crc = 0;
  ASSERT_TRUE(store.Put(key, *covered.value(), &crc).ok());
  ASSERT_TRUE(
      wal->Append(WalRecordType::kSnapshotMark, EncodeSnapshotMark(2, 2, crc))
          .ok());
  // Crash between the NEXT Put and its mark: a newer snapshot file exists
  // that no mark describes. Folding past the old mark's sequence against
  // the new file would double-count batch 2 — the CRC check must reject
  // every mark and degrade to full replay.
  ASSERT_TRUE(covered.value()->FoldRows(batch2_).ok());
  ASSERT_TRUE(store.Put(key, *covered.value()).ok());

  const RecoveryManager manager(&store);
  auto recovered = manager.Recover(key, *wal, kDomain, config);
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE(recovered.value().used_snapshot);
  ASSERT_NE(recovered.value().accumulator, nullptr);
  EXPECT_EQ(SnapshotBytes(*recovered.value().accumulator),
            SnapshotBytes(*Reference(config)));
}

TEST_F(RecoveryTest, NonMergeableRecoversBatchesForReservoirReplay) {
  const EstimatorConfig config = ConfigFor(EstimatorKind::kMaxDiff, 16);
  const auto wal = MakeLog(FreshDir("recovery_nonmergeable"));
  const RecoveryManager manager(nullptr);
  const CatalogKey key{"t", "x", FingerprintConfig(config)};
  auto recovered = manager.Recover(key, *wal, kDomain, config);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value().accumulator, nullptr);
  EXPECT_EQ(recovered.value().registration_rows, reg_);
  ASSERT_EQ(recovered.value().ingest_batches.size(), 2u);
  EXPECT_EQ(recovered.value().ingest_batches[0], batch1_);
  EXPECT_EQ(recovered.value().ingest_batches[1], batch2_);
}

// Recovery keeps the newest kFeedbackRingCapacity observations in log
// order, whatever records they interleave with.
TEST_F(RecoveryTest, FeedbackRingKeepsTheNewestObservationsInLogOrder) {
  const EstimatorConfig config = ConfigFor(EstimatorKind::kFeedback, 16);
  const auto wal = MakeLog(FreshDir("recovery_feedback_ring"));
  constexpr size_t kObservations = kFeedbackRingCapacity + 44;
  for (size_t i = 0; i < kObservations; ++i) {
    ASSERT_TRUE(wal->Append(WalRecordType::kFeedback,
                            EncodeFeedback({{0.0, 1.0 + i}, 0.5}))
                    .ok());
    if (i == 100) {
      ASSERT_TRUE(
          wal->Append(WalRecordType::kIngest, EncodeRowBatch(batch1_)).ok());
    }
  }
  const RecoveryManager manager(nullptr);
  const CatalogKey key{"t", "x", FingerprintConfig(config)};
  auto recovered = manager.Recover(key, *wal, kDomain, config);
  ASSERT_TRUE(recovered.ok());
  const std::vector<FeedbackObservation>& ring = recovered.value().feedback;
  ASSERT_EQ(ring.size(), kFeedbackRingCapacity);
  for (size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring[i].query.b,
              1.0 + static_cast<double>(kObservations - ring.size() + i));
  }
  EXPECT_EQ(recovered.value().ingest_batches.size(), 3u);
  EXPECT_EQ(recovered.value().total_rows, 470u);
}

TEST_F(RecoveryTest, EmptyLogIsNotFound) {
  const std::string dir = FreshDir("recovery_empty");
  auto wal = WriteAheadLog::Open(dir);
  ASSERT_TRUE(wal.ok());
  const EstimatorConfig config = ConfigFor(EstimatorKind::kEquiWidth, 16);
  const RecoveryManager manager(nullptr);
  const CatalogKey key{"t", "x", FingerprintConfig(config)};
  EXPECT_EQ(manager.Recover(key, *wal.value(), kDomain, config)
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST_F(RecoveryTest, QuarantineProvenanceSurfaces) {
  // A log whose earlier segment is corrupted mid-file recovers as empty
  // (everything quarantined) but reports how much history went missing.
  const std::string dir = FreshDir("recovery_quarantine");
  WalOptions options;
  options.segment_bytes = 64;
  {
    auto wal = WriteAheadLog::Open(dir, options);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value()
                    ->Append(WalRecordType::kRegister, EncodeRowBatch(reg_))
                    .ok());
    ASSERT_TRUE(wal.value()
                    ->Append(WalRecordType::kIngest, EncodeRowBatch(batch1_))
                    .ok());
  }
  std::vector<std::string> segments;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    segments.push_back(entry.path().string());
  }
  std::sort(segments.begin(), segments.end());
  {
    std::FILE* file = std::fopen(segments[0].c_str(), "r+b");
    ASSERT_NE(file, nullptr);
    ASSERT_EQ(std::fseek(file, 30, SEEK_SET), 0);
    uint8_t byte = 0;
    ASSERT_EQ(std::fread(&byte, 1, 1, file), 1u);
    byte ^= 0xFF;  // guaranteed different, whatever was there
    ASSERT_EQ(std::fseek(file, 30, SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(&byte, 1, 1, file), 1u);
    std::fclose(file);
  }
  auto wal = WriteAheadLog::Open(dir, options);
  ASSERT_TRUE(wal.ok());
  EXPECT_GT(wal.value()->open_stats().segments_quarantined, 0u);
  const EstimatorConfig config = ConfigFor(EstimatorKind::kEquiWidth, 16);
  const RecoveryManager manager(nullptr);
  const CatalogKey key{"t", "x", FingerprintConfig(config)};
  auto recovered = manager.Recover(key, *wal.value(), kDomain, config);
  // The registration record was in the quarantined history: nothing to
  // recover, but the caller can see why.
  EXPECT_EQ(recovered.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace selest
