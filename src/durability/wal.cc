#include "src/durability/wal.h"

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "src/exec/fault_injection.h"
#include "src/util/serialize.h"

namespace selest {
namespace {

// Fixed per-record overhead: length u32 + (type u32 + sequence u64) + CRC
// u32. `length` itself counts the type + sequence + payload span.
constexpr size_t kLengthBytes = 4;
constexpr size_t kHeaderBytes = 12;  // type + sequence
constexpr size_t kCrcBytes = 4;

constexpr char kSegmentPrefix[] = "wal-";
constexpr char kSegmentSuffix[] = ".seg";
constexpr char kQuarantineSuffix[] = ".quarantine";

void AppendU32(std::vector<uint8_t>& bytes, uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    bytes.push_back(static_cast<uint8_t>(value >> shift));
  }
}

void AppendU64(std::vector<uint8_t>& bytes, uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    bytes.push_back(static_cast<uint8_t>(value >> shift));
  }
}

uint32_t LoadU32(const uint8_t* bytes) {
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<uint32_t>(bytes[i]) << (8 * i);
  }
  return value;
}

uint64_t LoadU64(const uint8_t* bytes) {
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<uint64_t>(bytes[i]) << (8 * i);
  }
  return value;
}

// Encodes a record frame directly onto the end of `bytes` — the append
// hot path runs once per ingest batch, so the frame is built in place
// instead of through a temporary that would be copied into the pending
// buffer.
void EncodeRecordInto(std::vector<uint8_t>& bytes, WalRecordType type,
                      uint64_t sequence, std::span<const uint8_t> payload) {
  // No reserve here: `bytes` is the accumulating pending buffer, and an
  // exact-size reserve per call would defeat geometric growth (every
  // append would reallocate and copy the whole buffer — quadratic).
  const size_t start = bytes.size();
  AppendU32(bytes, static_cast<uint32_t>(kHeaderBytes + payload.size()));
  AppendU32(bytes, static_cast<uint32_t>(type));
  AppendU64(bytes, sequence);
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  const uint32_t crc =
      Crc32(std::span<const uint8_t>(bytes).subspan(start + kLengthBytes));
  AppendU32(bytes, crc);
}

// Existing segment files under `directory`, ordered by index. Quarantined
// files are evidence from an earlier recovery and are never re-read.
std::vector<std::pair<uint64_t, std::string>> ListSegments(
    const std::string& directory) {
  std::vector<std::pair<uint64_t, std::string>> segments;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(directory, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(kSegmentPrefix, 0) != 0) continue;
    if (name.size() < std::strlen(kSegmentSuffix) ||
        name.compare(name.size() - std::strlen(kSegmentSuffix),
                     std::string::npos, kSegmentSuffix) != 0) {
      continue;
    }
    const uint64_t index = std::strtoull(
        name.c_str() + std::strlen(kSegmentPrefix), nullptr, 10);
    if (index == 0) continue;
    segments.emplace_back(index, entry.path().string());
  }
  std::sort(segments.begin(), segments.end());
  return segments;
}

bool IsKnownType(uint32_t type) {
  return type == static_cast<uint32_t>(WalRecordType::kRegister) ||
         type == static_cast<uint32_t>(WalRecordType::kIngest) ||
         type == static_cast<uint32_t>(WalRecordType::kSnapshotMark) ||
         type == static_cast<uint32_t>(WalRecordType::kFeedback);
}

// One segment's scan outcome: the records parsed off a valid prefix, the
// byte offset where that prefix ends, and whether the remainder (if any)
// parsed cleanly.
struct SegmentScan {
  std::vector<WalRecord> records;
  size_t valid_bytes = 0;
  bool clean = true;  // false when bytes past valid_bytes failed to parse
};

// Parses records until the bytes run out or stop making sense. Sequence
// continuity is validated against `expected_sequence` (0 = accept any
// start, then require +1 steps).
SegmentScan ScanSegment(std::span<const uint8_t> bytes,
                        uint64_t expected_sequence) {
  SegmentScan scan;
  size_t offset = 0;
  while (offset < bytes.size()) {
    const size_t remaining = bytes.size() - offset;
    if (remaining < kLengthBytes) break;  // torn length prefix
    const uint32_t length = LoadU32(bytes.data() + offset);
    if (length < kHeaderBytes) break;  // nonsense length: corrupt
    if (remaining < kLengthBytes + length + kCrcBytes) break;  // torn body
    const uint8_t* body = bytes.data() + offset + kLengthBytes;
    const uint32_t stored_crc = LoadU32(body + length);
    if (Crc32(std::span<const uint8_t>(body, length)) != stored_crc) break;
    const uint32_t type = LoadU32(body);
    const uint64_t sequence = LoadU64(body + 4);
    if (!IsKnownType(type)) break;
    if (expected_sequence != 0 && sequence != expected_sequence) break;
    WalRecord record;
    record.sequence = sequence;
    record.type = static_cast<WalRecordType>(type);
    record.payload.assign(body + kHeaderBytes, body + length);
    scan.records.push_back(std::move(record));
    expected_sequence = sequence + 1;
    offset += kLengthBytes + length + kCrcBytes;
  }
  scan.valid_bytes = offset;
  scan.clean = offset == bytes.size();
  return scan;
}

}  // namespace

WriteAheadLog::WriteAheadLog(std::string directory, WalOptions options)
    : directory_(std::move(directory)), options_(options) {}

WriteAheadLog::~WriteAheadLog() {
  // Clean shutdown: best-effort flush of anything still buffered. A crash
  // is simulated by abandoning synced state instead (the fault points drop
  // the pending buffer before control ever returns here).
  if (pending_bytes_ > 0) (void)Sync();
  if (active_segment_ != nullptr) std::fclose(active_segment_);
}

std::string WriteAheadLog::SegmentPath(uint64_t index) const {
  char name[32];
  std::snprintf(name, sizeof(name), "%s%08llu%s", kSegmentPrefix,
                static_cast<unsigned long long>(index), kSegmentSuffix);
  return directory_ + "/" + name;
}

StatusOr<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    const std::string& directory, const WalOptions& options, bool reset) {
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) {
    return InternalError("cannot create WAL directory " + directory + ": " +
                         ec.message());
  }

  std::vector<std::pair<uint64_t, std::string>> segments =
      ListSegments(directory);

  if (reset) {
    for (const auto& [index, path] : segments) {
      std::filesystem::remove(path, ec);
    }
    segments.clear();
  }

  auto wal = std::unique_ptr<WriteAheadLog>(
      new WriteAheadLog(directory, options));

  bool quarantining = false;
  for (size_t i = 0; i < segments.size(); ++i) {
    const auto& [index, path] = segments[i];
    if (quarantining) {
      std::filesystem::rename(path, path + kQuarantineSuffix, ec);
      ++wal->open_stats_.segments_quarantined;
      continue;
    }
    ++wal->open_stats_.segments_scanned;
    auto bytes = ReadBytesFromFile(path);
    if (!bytes.ok()) {
      // Unreadable at the filesystem level: quarantine it and everything
      // after (records past a hole cannot be applied consistently).
      std::filesystem::rename(path, path + kQuarantineSuffix, ec);
      ++wal->open_stats_.segments_quarantined;
      quarantining = true;
      continue;
    }
    const uint64_t expected =
        wal->last_sequence_ == 0 ? 0 : wal->last_sequence_ + 1;
    SegmentScan scan = ScanSegment(bytes.value(), expected);
    const bool is_last = i + 1 == segments.size();
    if (!scan.clean && !is_last) {
      // Corruption in the middle of the log: not a torn tail. Quarantine
      // this segment (its valid prefix included — a half-trusted segment
      // is worse than an honest hole) and everything after it.
      std::filesystem::rename(path, path + kQuarantineSuffix, ec);
      ++wal->open_stats_.segments_quarantined;
      quarantining = true;
      continue;
    }
    if (!scan.clean) {
      // Torn tail of the last segment: truncate back to the last valid
      // record boundary.
      wal->open_stats_.truncated_bytes +=
          bytes.value().size() - scan.valid_bytes;
      std::filesystem::resize_file(path, scan.valid_bytes, ec);
      if (ec) {
        return InternalError("cannot truncate torn WAL tail in " + path +
                             ": " + ec.message());
      }
    }
    if (!scan.records.empty()) {
      wal->last_sequence_ = scan.records.back().sequence;
    }
    wal->open_stats_.records_recovered += scan.records.size();
    wal->active_segment_index_ = index;
    wal->active_segment_bytes_ = scan.valid_bytes;
    wal->active_segment_durable_bytes_ = scan.valid_bytes;
  }
  wal->durable_sequence_ = wal->last_sequence_;

  // Resume appending to the last surviving segment, rotating first if it
  // is already full (or if everything was quarantined — never write past
  // a hole into a reused index).
  if (quarantining || wal->active_segment_bytes_ >= options.segment_bytes) {
    ++wal->active_segment_index_;
    wal->active_segment_bytes_ = 0;
    wal->active_segment_durable_bytes_ = 0;
  }
  SELEST_RETURN_IF_ERROR(wal->OpenActiveSegment());
  return wal;
}

Status WriteAheadLog::OpenActiveSegment() {
  if (active_segment_ != nullptr) {
    std::fclose(active_segment_);
    active_segment_ = nullptr;
  }
  const std::string path = SegmentPath(active_segment_index_);
  active_segment_ = std::fopen(path.c_str(), "ab");
  if (active_segment_ == nullptr) {
    return InternalError("cannot open WAL segment " + path);
  }
  return Status::Ok();
}

Status WriteAheadLog::Append(WalRecordType type,
                             std::vector<uint8_t>&& payload,
                             uint64_t* sequence_out) {
  SELEST_RETURN_IF_ERROR(FaultInjector::Check(kFaultPointWalAppend));
  const uint64_t sequence = last_sequence_ + 1;
  WalRecord record;
  record.sequence = sequence;
  record.type = type;
  record.payload = std::move(payload);
  pending_bytes_ +=
      kLengthBytes + kHeaderBytes + record.payload.size() + kCrcBytes;
  pending_records_.push_back(std::move(record));
  last_sequence_ = sequence;
  if (sequence_out != nullptr) *sequence_out = sequence;
  if (options_.sync_every_append) return Sync();
  return Status::Ok();
}

Status WriteAheadLog::Append(WalRecordType type,
                             std::span<const uint8_t> payload,
                             uint64_t* sequence_out) {
  return Append(type, std::vector<uint8_t>(payload.begin(), payload.end()),
                sequence_out);
}

Status WriteAheadLog::Sync() {
  if (pending_records_.empty()) return Status::Ok();

  // A previous failed Sync may have left torn bytes past the durable
  // boundary; cut them off before writing, so valid records never follow
  // garbage within a segment.
  if (active_segment_bytes_ != active_segment_durable_bytes_) {
    (void)std::fflush(active_segment_);
    if (::ftruncate(::fileno(active_segment_),
                    static_cast<off_t>(active_segment_durable_bytes_)) != 0) {
      return InternalError("cannot repair torn WAL segment " +
                           SegmentPath(active_segment_index_));
    }
    active_segment_bytes_ = active_segment_durable_bytes_;
  }

  // Encode the frames of every record past the durable boundary into the
  // reused scratch buffer (clear() keeps its capacity warm).
  scratch_.clear();
  for (const WalRecord& record : pending_records_) {
    EncodeRecordInto(scratch_, record.type, record.sequence, record.payload);
  }

  // Any write failure below means an unknown prefix of the pending frames
  // reached the disk. The acknowledged-durable state rolls back to the
  // last successful Sync: the pending records are dropped (their sequences
  // are reused by the next Append), and the next Open truncates whatever
  // torn prefix actually landed in the file.
  const auto fail = [this](std::string message) {
    if (active_segment_ != nullptr) (void)std::fflush(active_segment_);
    pending_bytes_ = 0;
    pending_records_.clear();
    last_sequence_ = durable_sequence_;
    return InternalError(std::move(message));
  };

  const Status fault = FaultInjector::Check(kFaultPointWalSync);
  if (!fault.ok()) {
    // Simulated crash mid-write: half the pending bytes land in the file
    // (flushed so a subsequent Open actually sees the torn tail), the
    // rest vanish with the process.
    const size_t torn = scratch_.size() / 2;
    if (torn > 0 && active_segment_ != nullptr) {
      (void)std::fwrite(scratch_.data(), 1, torn, active_segment_);
      (void)std::fflush(active_segment_);
      active_segment_bytes_ += torn;  // the torn bytes occupy the file
    }
    return fail(fault.message());
  }

  const size_t written =
      std::fwrite(scratch_.data(), 1, scratch_.size(), active_segment_);
  if (written != scratch_.size()) {
    active_segment_bytes_ += written;
    return fail("short write to WAL segment " +
                SegmentPath(active_segment_index_));
  }
  // fdatasync, not fsync: an append-only segment needs its data and size
  // durable, not its timestamps — skipping the inode-metadata flush is
  // measurably faster on ext4 and loses nothing the recovery scan reads.
  if (std::fflush(active_segment_) != 0 ||
      ::fdatasync(::fileno(active_segment_)) != 0) {
    active_segment_bytes_ += written;
    return fail("fsync failed on WAL segment " +
                SegmentPath(active_segment_index_));
  }
  active_segment_bytes_ += scratch_.size();
  active_segment_durable_bytes_ = active_segment_bytes_;
  pending_bytes_ = 0;
  pending_records_.clear();
  durable_sequence_ = last_sequence_;

  if (active_segment_bytes_ >= options_.segment_bytes) {
    ++active_segment_index_;
    active_segment_bytes_ = 0;
    active_segment_durable_bytes_ = 0;
    SELEST_RETURN_IF_ERROR(OpenActiveSegment());
  }
  return Status::Ok();
}

Status WriteAheadLog::Replay(
    const std::function<Status(const WalRecord&)>& callback) const {
  // Flush buffered stdio writes so the scan below sees every durable
  // frame (durable bytes were already flushed by Sync; this is belt and
  // braces for the zero-cost case).
  if (active_segment_ != nullptr) (void)std::fflush(active_segment_);
  uint64_t expected = 0;
  for (const auto& [index, path] : ListSegments(directory_)) {
    auto bytes = ReadBytesFromFile(path);
    if (!bytes.ok()) {
      return InternalError("cannot read WAL segment " + path + ": " +
                           bytes.status().message());
    }
    const SegmentScan scan = ScanSegment(bytes.value(), expected);
    for (const WalRecord& record : scan.records) {
      // Frames past the durable boundary reached the file without an
      // acknowledged fsync (a failed Sync's leftovers); they were never
      // acknowledged, so replay stops before them.
      if (record.sequence > durable_sequence_) return Status::Ok();
      expected = record.sequence + 1;
      SELEST_RETURN_IF_ERROR(callback(record));
    }
    // A non-clean scan is the torn tail; nothing replayable follows.
    if (!scan.clean) break;
  }
  return Status::Ok();
}

}  // namespace selest
