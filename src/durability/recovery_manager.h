// Startup recovery: snapshot + WAL replay → the pre-crash column state.
//
// Given a column's opened WAL (durability/wal.h) and the snapshot store
// (catalog/snapshot_store.h), Recover reconstructs the ingest-side state
// the live server held before the crash:
//
//   1. replay the WAL's durable records: the kRegister row set, every
//      kIngest batch in sequence order, and the kSnapshotMark records;
//   2. pick the newest snapshot mark whose stored CRC matches the
//      snapshot file actually on disk (a crash between the snapshot Put
//      and the mark append leaves a newer file with no matching mark —
//      the mark is then untrusted and recovery degrades to full replay);
//   3. mergeable estimators: load the proven snapshot (with retry, since
//      a transient read error must not force a slow full replay) and fold
//      the ingest batches past its covered sequence — bit-identical to
//      the pre-crash accumulator, because the snapshot round-trip is
//      bit-identical and the fold order is the original ingest order.
//      Without a provable snapshot: rebuild from the registration rows
//      and fold every batch (same fold sequence, same result, just
//      slower);
//   4. non-mergeable estimators get no accumulator (the live server
//      rebuilds from its reservoir, which it repopulates by replaying the
//      same batches through the same seeded reservoir);
//   5. the newest kFeedbackRingCapacity kFeedback records, in log order:
//      the live server replays them onto that rebuild, so recovery
//      equals a refresh at the crash point.
//
// Unreadable WAL segments were already quarantined by WriteAheadLog::Open
// (rename, never delete); recovery reports their count so operators can
// distinguish "clean restart" from "restart minus a hole".
#ifndef SELEST_DURABILITY_RECOVERY_MANAGER_H_
#define SELEST_DURABILITY_RECOVERY_MANAGER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/catalog/snapshot_store.h"
#include "src/data/domain.h"
#include "src/durability/wal.h"
#include "src/est/estimator_factory.h"
#include "src/query/range_query.h"
#include "src/util/retry.h"

namespace selest {

// Encodes/decodes the kSnapshotMark payload.
std::vector<uint8_t> EncodeSnapshotMark(uint64_t covered_sequence,
                                        uint64_t generation,
                                        uint32_t snapshot_crc);

struct SnapshotMark {
  uint64_t covered_sequence = 0;
  uint64_t generation = 0;
  uint32_t snapshot_crc = 0;
};
StatusOr<SnapshotMark> DecodeSnapshotMark(std::span<const uint8_t> payload);

// Encodes/decodes the kRegister / kIngest payloads (a clamped row batch).
std::vector<uint8_t> EncodeRowBatch(std::span<const double> rows);
StatusOr<std::vector<double>> DecodeRowBatch(std::span<const uint8_t> payload);

// One query-feedback observation: the kFeedback payload and an entry of
// the live server's per-column feedback ring.
struct FeedbackObservation {
  RangeQuery query;
  double true_selectivity = 0.0;
};
std::vector<uint8_t> EncodeFeedback(const FeedbackObservation& observation);
StatusOr<FeedbackObservation> DecodeFeedback(
    std::span<const uint8_t> payload);

// Observations a column keeps for replay onto every rebuild: the
// reconstructed distribution's own constraint budget.
constexpr size_t kFeedbackRingCapacity = 256;

// Appends to a feedback ring, dropping the oldest entry beyond capacity.
void PushFeedback(std::vector<FeedbackObservation>& ring,
                  const FeedbackObservation& observation);

struct RecoveryOptions {
  // Wraps the snapshot load; only transient errors retry, corruption
  // falls through to full replay immediately.
  RetryOptions retry;
};

struct RecoveredColumn {
  // The recovered mergeable accumulator; null when the estimator kind
  // does not merge (the caller rebuilds from the replayed reservoir).
  std::unique_ptr<SelectivityEstimator> accumulator;
  // The registration row set and every durable ingest batch after it, in
  // ingest order — the replay source for the reservoir.
  std::vector<double> registration_rows;
  std::vector<std::vector<double>> ingest_batches;
  // The newest kFeedbackRingCapacity observations, in log order.
  std::vector<FeedbackObservation> feedback;
  uint64_t total_rows = 0;
  uint64_t last_sequence = 0;
  // Recovery provenance, surfaced into LiveColumnStats.
  bool used_snapshot = false;
  uint64_t snapshot_sequence = 0;   // covered sequence of the proven mark
  uint64_t last_generation = 0;     // newest generation any mark recorded
  size_t quarantined_segments = 0;  // from the WAL open scan
  uint64_t truncated_bytes = 0;     // torn tail removed by the open scan
};

class RecoveryManager {
 public:
  // `store` may be null (no durable snapshot tier): recovery is then
  // always a full replay.
  explicit RecoveryManager(const SnapshotStore* store,
                           RecoveryOptions options = {})
      : store_(store), options_(options) {}

  // Reconstructs the column keyed by `key` from `wal` (already opened,
  // torn tail truncated, bad segments quarantined). kNotFound when the
  // log holds no registration record — there is nothing to recover.
  StatusOr<RecoveredColumn> Recover(const CatalogKey& key,
                                    const WriteAheadLog& wal,
                                    const Domain& domain,
                                    const EstimatorConfig& config) const;

 private:
  const SnapshotStore* store_;
  RecoveryOptions options_;
};

}  // namespace selest

#endif  // SELEST_DURABILITY_RECOVERY_MANAGER_H_
