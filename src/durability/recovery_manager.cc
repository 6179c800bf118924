#include "src/durability/recovery_manager.h"

#include <algorithm>
#include <utility>

#include "src/est/estimator_snapshot.h"
#include "src/util/serialize.h"

namespace selest {

std::vector<uint8_t> EncodeSnapshotMark(uint64_t covered_sequence,
                                        uint64_t generation,
                                        uint32_t snapshot_crc) {
  ByteWriter writer;
  writer.WriteU64(covered_sequence);
  writer.WriteU64(generation);
  writer.WriteU32(snapshot_crc);
  return writer.TakeBytes();
}

StatusOr<SnapshotMark> DecodeSnapshotMark(std::span<const uint8_t> payload) {
  ByteReader reader(std::vector<uint8_t>(payload.begin(), payload.end()));
  SnapshotMark mark;
  SELEST_ASSIGN_OR_RETURN(mark.covered_sequence, reader.ReadU64());
  SELEST_ASSIGN_OR_RETURN(mark.generation, reader.ReadU64());
  SELEST_ASSIGN_OR_RETURN(mark.snapshot_crc, reader.ReadU32());
  if (!reader.AtEnd()) {
    return InvalidArgumentError("snapshot mark has trailing bytes");
  }
  return mark;
}

std::vector<uint8_t> EncodeRowBatch(std::span<const double> rows) {
  ByteWriter writer;
  writer.WriteDoubleVector(rows);
  return writer.TakeBytes();
}

StatusOr<std::vector<double>> DecodeRowBatch(
    std::span<const uint8_t> payload) {
  ByteReader reader(std::vector<uint8_t>(payload.begin(), payload.end()));
  SELEST_ASSIGN_OR_RETURN(std::vector<double> rows,
                          reader.ReadDoubleVector());
  if (!reader.AtEnd()) {
    return InvalidArgumentError("row batch has trailing bytes");
  }
  return rows;
}

std::vector<uint8_t> EncodeFeedback(const FeedbackObservation& observation) {
  ByteWriter writer;
  writer.WriteDouble(observation.query.a);
  writer.WriteDouble(observation.query.b);
  writer.WriteDouble(observation.true_selectivity);
  return writer.TakeBytes();
}

StatusOr<FeedbackObservation> DecodeFeedback(
    std::span<const uint8_t> payload) {
  ByteReader reader(std::vector<uint8_t>(payload.begin(), payload.end()));
  FeedbackObservation observation;
  SELEST_ASSIGN_OR_RETURN(observation.query.a, reader.ReadDouble());
  SELEST_ASSIGN_OR_RETURN(observation.query.b, reader.ReadDouble());
  SELEST_ASSIGN_OR_RETURN(observation.true_selectivity, reader.ReadDouble());
  if (!reader.AtEnd()) {
    return InvalidArgumentError("feedback record has trailing bytes");
  }
  return observation;
}

void PushFeedback(std::vector<FeedbackObservation>& ring,
                  const FeedbackObservation& observation) {
  if (ring.size() == kFeedbackRingCapacity) ring.erase(ring.begin());
  ring.push_back(observation);
}

StatusOr<RecoveredColumn> RecoveryManager::Recover(
    const CatalogKey& key, const WriteAheadLog& wal, const Domain& domain,
    const EstimatorConfig& config) const {
  RecoveredColumn recovered;
  recovered.quarantined_segments = wal.open_stats().segments_quarantined;
  recovered.truncated_bytes = wal.open_stats().truncated_bytes;

  // Pass 1: decode the durable log. Registration must come first; batches
  // keep their (sequence, rows) pairing so the snapshot fast-path can fold
  // only the tail past the proven mark.
  bool registered = false;
  std::vector<std::pair<uint64_t, std::vector<double>>> batches;
  std::vector<SnapshotMark> marks;
  const Status replayed =
      wal.Replay([&](const WalRecord& record) -> Status {
        switch (record.type) {
          case WalRecordType::kRegister: {
            if (registered) {
              return DataLossError(
                  "WAL holds a second registration record; the log was not "
                  "reset on re-registration");
            }
            SELEST_ASSIGN_OR_RETURN(recovered.registration_rows,
                                    DecodeRowBatch(record.payload));
            registered = true;
            return Status::Ok();
          }
          case WalRecordType::kIngest: {
            if (!registered) {
              return DataLossError(
                  "WAL ingest record precedes the registration record");
            }
            SELEST_ASSIGN_OR_RETURN(std::vector<double> rows,
                                    DecodeRowBatch(record.payload));
            batches.emplace_back(record.sequence, std::move(rows));
            return Status::Ok();
          }
          case WalRecordType::kFeedback: {
            if (!registered) {
              return DataLossError(
                  "WAL feedback record precedes the registration record");
            }
            SELEST_ASSIGN_OR_RETURN(const FeedbackObservation observation,
                                    DecodeFeedback(record.payload));
            PushFeedback(recovered.feedback, observation);
            return Status::Ok();
          }
          case WalRecordType::kSnapshotMark: {
            SELEST_ASSIGN_OR_RETURN(const SnapshotMark mark,
                                    DecodeSnapshotMark(record.payload));
            marks.push_back(mark);
            return Status::Ok();
          }
        }
        return DataLossError("unknown WAL record type");
      });
  SELEST_RETURN_IF_ERROR(replayed);
  if (!registered) {
    return NotFoundError("WAL for " + key.relation + "." + key.attribute +
                         " holds no registration record; nothing to recover");
  }
  recovered.last_sequence = wal.durable_sequence();
  recovered.total_rows = recovered.registration_rows.size();
  for (const auto& [sequence, rows] : batches) {
    recovered.total_rows += rows.size();
  }
  for (const SnapshotMark& mark : marks) {
    recovered.last_generation =
        std::max(recovered.last_generation, mark.generation);
  }

  // Pass 2: the mergeable accumulator. Probe mergeability with a build
  // from the registration rows — that build doubles as the full-replay
  // starting point, so the probe is never wasted work.
  SELEST_ASSIGN_OR_RETURN(
      std::unique_ptr<SelectivityEstimator> accumulator,
      BuildEstimator(recovered.registration_rows, domain, config));
  if (!accumulator->SupportsMerge()) {
    // Non-mergeable: the caller rebuilds from the replayed reservoir.
    for (auto& [sequence, rows] : batches) {
      recovered.ingest_batches.push_back(std::move(rows));
    }
    return recovered;
  }

  // Prove a snapshot mark against the file on disk: the newest mark whose
  // CRC matches describes the snapshot's exact covered sequence. Loading
  // retries transient errors only — corrupt bytes degrade straight to
  // full replay.
  uint64_t fold_from_sequence = 0;  // fold batches with sequence > this
  if (store_ != nullptr && !marks.empty()) {
    auto file_bytes = ReadBytesFromFile(store_->PathFor(key));
    if (file_bytes.ok()) {
      const uint32_t file_crc = SnapshotContentCrc(file_bytes.value());
      const SnapshotMark* proven = nullptr;
      for (const SnapshotMark& mark : marks) {
        if (mark.snapshot_crc == file_crc &&
            (proven == nullptr ||
             mark.covered_sequence > proven->covered_sequence)) {
          proven = &mark;
        }
      }
      if (proven != nullptr) {
        std::unique_ptr<SelectivityEstimator> loaded;
        const Status status = RetryWithBackoff(
            options_.retry, [&]() -> Status {
              auto snapshot = LoadEstimatorSnapshot(file_bytes.value());
              if (!snapshot.ok()) return snapshot.status();
              loaded = std::move(snapshot).value();
              return Status::Ok();
            });
        if (status.ok() && loaded->SupportsMerge()) {
          accumulator = std::move(loaded);
          fold_from_sequence = proven->covered_sequence;
          recovered.used_snapshot = true;
          recovered.snapshot_sequence = proven->covered_sequence;
        }
      }
    }
  }

  for (auto& [sequence, rows] : batches) {
    if (sequence > fold_from_sequence) {
      SELEST_RETURN_IF_ERROR(accumulator->FoldRows(rows));
    }
    recovered.ingest_batches.push_back(std::move(rows));
  }
  recovered.accumulator = std::move(accumulator);
  return recovered;
}

}  // namespace selest
