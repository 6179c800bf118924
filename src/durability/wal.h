// Per-column write-ahead log: the durable ingest substrate.
//
// The live server's crash problem is that ingested rows live only in the
// in-memory accumulator until the next snapshot write-back; process death
// mid-refresh silently discards everything since the last Put. The WAL
// closes that window: Ingest appends the batch here *before* mutating any
// in-memory state, so restart recovery (durability/recovery_manager.h)
// can replay exactly the rows the server acknowledged.
//
// On-disk format (the PR 5 envelope discipline applied per record):
//
//   record  = length u32 | type u32 | sequence u64 | payload | CRC32 u32
//
// where `length` counts the type + sequence + payload bytes and the CRC
// covers the same span, all little-endian. Records live in numbered
// segment files (`wal-00000001.seg`, ...) that rotate once the active
// segment exceeds `segment_bytes`. Sequences are assigned contiguously
// starting at 1 and validated on open.
//
// Open() scans every segment and enforces the recovery taxonomy:
//   * torn tail (truncated or CRC-bad bytes at the end of the *last*
//     segment): the file is truncated back to the last valid record
//     boundary — the classic WAL discipline for a crash mid-append;
//   * an unreadable earlier segment (corruption that is not a tail, or a
//     sequence discontinuity): the segment and every later one are
//     quarantined — renamed to `<name>.quarantine`, never deleted — since
//     records past a hole cannot be replayed consistently.
//
// Durability boundary: Append buffers the record in memory; Sync writes
// the pending bytes and fdatasyncs the segment (data + size, not
// timestamps). Durable records live only in the segment files — Replay
// re-scans them — so memory is bounded by the sync interval, not the log
// length. With `sync_every_append`
// (default) every Append is immediately durable. The guarantee either way
// is exactly "nothing acknowledged by a successful Sync is ever lost" —
// rows in a failed or never-issued Sync may vanish, and recovery then
// truncates any torn prefix of them.
//
// Fault points: `wal/append` fires before a record is buffered (the
// record is wholly lost); `wal/fsync` fires inside Sync and simulates a
// crash mid-write deterministically — half the pending bytes reach the
// file, the rest are dropped — exercising the torn-tail truncation path
// for real. Not thread-safe; the live server serializes access under its
// per-column ingest mutex.
#ifndef SELEST_DURABILITY_WAL_H_
#define SELEST_DURABILITY_WAL_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace selest {

enum class WalRecordType : uint32_t {
  // Registration rows of the column (the first record of a fresh log).
  kRegister = 1,
  // One ingested batch, already clamped to the column domain.
  kIngest = 2,
  // A snapshot write-back completed: payload = covered sequence u64,
  // generation number u64, SnapshotContentCrc of the snapshot file u32
  // (the whole-file Crc32 is a constant residue for every valid envelope
  // — see serialize.h). Recovery trusts the newest mark whose CRC matches
  // the snapshot actually on disk (a crash between Put and mark append
  // leaves a newer file with no matching mark, which safely degrades to
  // full replay).
  kSnapshotMark = 3,
  // One query-feedback observation (range bounds a, b and the true
  // selectivity, three f64). Recovery replays the newest
  // kFeedbackRingCapacity of them, in log order, onto the rebuilt
  // estimator (durability/recovery_manager.h).
  kFeedback = 4,
};

struct WalRecord {
  uint64_t sequence = 0;
  WalRecordType type = WalRecordType::kIngest;
  std::vector<uint8_t> payload;
};

// What Open() found and repaired; recovery surfaces these as counters.
struct WalOpenStats {
  size_t segments_scanned = 0;
  size_t records_recovered = 0;
  size_t segments_quarantined = 0;
  uint64_t truncated_bytes = 0;  // torn tail removed from the last segment
};

struct WalOptions {
  // Rotate to a new segment once the active one reaches this size.
  size_t segment_bytes = 4u << 20;
  // Sync after every Append. Turning this off batches appends in memory
  // until Sync() — the live server then syncs at refresh boundaries
  // (group commit), trading the durability window for ingest throughput.
  bool sync_every_append = true;
};

class WriteAheadLog {
 public:
  // Opens (creating if needed) the log under `directory`, scanning and
  // repairing existing segments per the taxonomy above. With `reset`, any
  // existing segments are removed first — the fresh-registration path,
  // where the caller is explicitly replacing the column's history.
  static StatusOr<std::unique_ptr<WriteAheadLog>> Open(
      const std::string& directory, const WalOptions& options = {},
      bool reset = false);

  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  // Assigns the next sequence number and buffers the record; with
  // sync_every_append, also syncs it to disk before returning.
  // `sequence_out` (may be null) receives the assigned sequence. On error
  // nothing is buffered and the sequence is not consumed. The rvalue
  // overload adopts the payload without copying — the ingest hot path.
  Status Append(WalRecordType type, std::vector<uint8_t>&& payload,
                uint64_t* sequence_out = nullptr);
  Status Append(WalRecordType type, std::span<const uint8_t> payload,
                uint64_t* sequence_out = nullptr);

  // Writes all pending bytes to the active segment, fsyncs it, and
  // rotates when the segment is full. A failed Sync drops the pending
  // bytes (they were never acknowledged durable) and may leave a torn
  // tail, which the next Open truncates.
  Status Sync();

  // Replays every durable record in sequence order by scanning the
  // segment files — the log is not mirrored in memory, so a WAL's
  // footprint stays bounded by the sync interval, not the log length.
  // Records buffered but not yet synced are not visible (frames that
  // reached the file without an acknowledged fsync are skipped by the
  // durable-sequence bound). Stops at the first callback error.
  Status Replay(
      const std::function<Status(const WalRecord&)>& callback) const;

  // Sequence of the last appended record (0 when the log is empty).
  // Includes buffered-but-unsynced records.
  uint64_t last_sequence() const { return last_sequence_; }
  // Sequence of the last record known durable (covered by a successful
  // Sync or recovered from disk on open).
  uint64_t durable_sequence() const { return durable_sequence_; }

  size_t pending_bytes() const { return pending_bytes_; }
  const WalOpenStats& open_stats() const { return open_stats_; }
  const std::string& directory() const { return directory_; }

 private:
  WriteAheadLog(std::string directory, WalOptions options);

  Status OpenActiveSegment();
  std::string SegmentPath(uint64_t index) const;

  std::string directory_;
  WalOptions options_;
  WalOpenStats open_stats_;

  // Records appended but not yet covered by a successful Sync. Durable
  // records live only in the segment files (Replay re-scans them), so the
  // in-memory footprint is bounded by the sync interval, not the log.
  std::vector<WalRecord> pending_records_;

  // Sync encodes the pending records' frames into `scratch_` just before
  // writing. Cleared (capacity kept) every Sync, so steady-state appends
  // never touch cold pages twice.
  std::vector<uint8_t> scratch_;
  size_t pending_bytes_ = 0;  // encoded size of pending_records_
  uint64_t last_sequence_ = 0;
  uint64_t durable_sequence_ = 0;

  uint64_t active_segment_index_ = 1;
  std::FILE* active_segment_ = nullptr;
  size_t active_segment_bytes_ = 0;
  // Bytes of the active segment covered by a successful Sync. When a
  // failed Sync leaves torn bytes past this point, the next Sync
  // truncates back here before writing, so valid records never land
  // after garbage.
  size_t active_segment_durable_bytes_ = 0;
};

}  // namespace selest

#endif  // SELEST_DURABILITY_WAL_H_
