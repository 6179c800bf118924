#include "src/util/serialize.h"

#include <array>
#include <atomic>
#include <bit>
#include <cstdio>
#include <cstring>

#include "src/exec/fault_injection.h"

namespace selest {

void ByteWriter::WriteU32(uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    bytes_.push_back(static_cast<uint8_t>(value >> shift));
  }
}

void ByteWriter::WriteU64(uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    bytes_.push_back(static_cast<uint8_t>(value >> shift));
  }
}

void ByteWriter::WriteDouble(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  WriteU64(bits);
}

void ByteWriter::WriteString(const std::string& value) {
  WriteU32(static_cast<uint32_t>(value.size()));
  bytes_.insert(bytes_.end(), value.begin(), value.end());
}

void ByteWriter::WriteDoubleVector(std::span<const double> values) {
  WriteU64(values.size());
  // Bulk path for the WAL ingest hot loop: resize once, then fill. On a
  // little-endian host the wire format is the in-memory layout, so the
  // whole array is one memcpy; the byte-store fallback keeps the encoding
  // identical elsewhere.
  size_t at = bytes_.size();
  bytes_.resize(at + values.size() * sizeof(uint64_t));
  if constexpr (std::endian::native == std::endian::little) {
    if (!values.empty()) {
      std::memcpy(bytes_.data() + at, values.data(),
                  values.size() * sizeof(double));
    }
  } else {
    for (double v : values) {
      uint64_t bits;
      std::memcpy(&bits, &v, sizeof(bits));
      for (int shift = 0; shift < 64; shift += 8) {
        bytes_[at++] = static_cast<uint8_t>(bits >> shift);
      }
    }
  }
}

Status ByteReader::Need(size_t count) {
  if (remaining() < count) {
    return OutOfRangeError("truncated input: need " + std::to_string(count) +
                           " bytes, have " + std::to_string(remaining()));
  }
  return Status::Ok();
}

StatusOr<uint32_t> ByteReader::ReadU32() {
  Status status = Need(4);
  if (!status.ok()) return status;
  uint32_t value = 0;
  for (int shift = 0; shift < 32; shift += 8) {
    value |= static_cast<uint32_t>(bytes_[position_++]) << shift;
  }
  return value;
}

StatusOr<uint64_t> ByteReader::ReadU64() {
  Status status = Need(8);
  if (!status.ok()) return status;
  uint64_t value = 0;
  for (int shift = 0; shift < 64; shift += 8) {
    value |= static_cast<uint64_t>(bytes_[position_++]) << shift;
  }
  return value;
}

StatusOr<double> ByteReader::ReadDouble() {
  auto bits = ReadU64();
  if (!bits.ok()) return bits.status();
  double value;
  const uint64_t raw = bits.value();
  std::memcpy(&value, &raw, sizeof(value));
  return value;
}

StatusOr<std::string> ByteReader::ReadString() {
  auto size = ReadU32();
  if (!size.ok()) return size.status();
  Status status = Need(size.value());
  if (!status.ok()) return status;
  std::string value(reinterpret_cast<const char*>(&bytes_[position_]),
                    size.value());
  position_ += size.value();
  return value;
}

StatusOr<std::vector<double>> ByteReader::ReadDoubleVector() {
  auto count = ReadU64();
  if (!count.ok()) return count.status();
  // 8 bytes per double: reject implausible counts before allocating. The
  // division (rather than count * 8) keeps a forged count near 2^61 from
  // overflowing past the bounds check into a huge allocation.
  if (count.value() > remaining() / 8) {
    return OutOfRangeError("truncated input: vector of " +
                           std::to_string(count.value()) +
                           " doubles exceeds the " +
                           std::to_string(remaining()) + " bytes remaining");
  }
  // That check covers the whole run, so each double decodes straight from
  // its eight little-endian bytes, as ReadDouble would, with no per-value
  // Status: snapshot loads are mostly these runs.
  std::vector<double> values(count.value());
  const uint8_t* in = bytes_.data() + position_;
  for (double& value : values) {
    uint64_t bits = 0;
    for (int shift = 0; shift < 64; shift += 8) {
      bits |= static_cast<uint64_t>(*in++) << shift;
    }
    std::memcpy(&value, &bits, sizeof(value));
  }
  position_ += values.size() * sizeof(double);
  return values;
}

namespace {

// Slicing-by-8 tables. tables[0] is the classic byte-at-a-time table;
// tables[t][b] extends it so eight input bytes fold into the register per
// step. Same polynomial, bit-identical results to the one-table loop (the
// golden-vector test pins this).
std::array<std::array<uint32_t, 256>, 8> MakeCrc32Tables() {
  std::array<std::array<uint32_t, 256>, 8> tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
    tables[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t t = 1; t < 8; ++t) {
      tables[t][i] =
          (tables[t - 1][i] >> 8) ^ tables[0][tables[t - 1][i] & 0xFFu];
    }
  }
  return tables;
}

}  // namespace

uint32_t Crc32(std::span<const uint8_t> bytes) {
  static const std::array<std::array<uint32_t, 256>, 8> tables =
      MakeCrc32Tables();
  uint32_t crc = 0xFFFFFFFFu;
  size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    const uint32_t lo = crc ^ (static_cast<uint32_t>(bytes[i]) |
                               static_cast<uint32_t>(bytes[i + 1]) << 8 |
                               static_cast<uint32_t>(bytes[i + 2]) << 16 |
                               static_cast<uint32_t>(bytes[i + 3]) << 24);
    const uint32_t hi = static_cast<uint32_t>(bytes[i + 4]) |
                        static_cast<uint32_t>(bytes[i + 5]) << 8 |
                        static_cast<uint32_t>(bytes[i + 6]) << 16 |
                        static_cast<uint32_t>(bytes[i + 7]) << 24;
    crc = tables[7][lo & 0xFFu] ^ tables[6][(lo >> 8) & 0xFFu] ^
          tables[5][(lo >> 16) & 0xFFu] ^ tables[4][lo >> 24] ^
          tables[3][hi & 0xFFu] ^ tables[2][(hi >> 8) & 0xFFu] ^
          tables[1][(hi >> 16) & 0xFFu] ^ tables[0][hi >> 24];
  }
  for (; i < bytes.size(); ++i) {
    crc = (crc >> 8) ^ tables[0][(crc ^ bytes[i]) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<uint8_t> WrapSnapshot(uint32_t type_tag,
                                  std::span<const uint8_t> payload) {
  ByteWriter writer;
  writer.WriteU32(kSnapshotMagic);
  writer.WriteU32(kSnapshotFormatVersion);
  writer.WriteU32(type_tag);
  writer.WriteU64(payload.size());
  std::vector<uint8_t> bytes = writer.TakeBytes();
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  const uint32_t crc = Crc32(payload);
  for (int shift = 0; shift < 32; shift += 8) {
    bytes.push_back(static_cast<uint8_t>(crc >> shift));
  }
  return bytes;
}

uint32_t SnapshotContentCrc(std::span<const uint8_t> file_bytes) {
  // Skip the envelope's trailing payload-CRC (see header comment). Files
  // too short to carry one are hashed whole; they fail UnwrapSnapshot
  // anyway, so their identity value never proves a usable snapshot.
  if (file_bytes.size() <= 4) return Crc32(file_bytes);
  return Crc32(file_bytes.first(file_bytes.size() - 4));
}

StatusOr<SnapshotView> UnwrapSnapshot(std::span<const uint8_t> bytes) {
  // Fixed parts: 20-byte header (magic, version, tag, payload size) plus a
  // 4-byte trailing checksum.
  constexpr size_t kHeaderBytes = 20;
  constexpr size_t kCrcBytes = 4;
  if (bytes.size() < kHeaderBytes + kCrcBytes) {
    return OutOfRangeError(
        "snapshot truncated: " + std::to_string(bytes.size()) +
        " bytes is smaller than the " +
        std::to_string(kHeaderBytes + kCrcBytes) + "-byte envelope");
  }
  ByteReader header(std::vector<uint8_t>(bytes.begin(),
                                         bytes.begin() + kHeaderBytes));
  const uint32_t magic = header.ReadU32().value();
  const uint32_t version = header.ReadU32().value();
  const uint32_t type_tag = header.ReadU32().value();
  const uint64_t payload_size = header.ReadU64().value();
  if (magic != kSnapshotMagic) {
    return DataLossError("snapshot magic mismatch: not a selest snapshot");
  }
  if (version > kSnapshotFormatVersion) {
    return FailedPreconditionError(
        "snapshot format version " + std::to_string(version) +
        " is newer than supported version " +
        std::to_string(kSnapshotFormatVersion));
  }
  if (bytes.size() - kHeaderBytes - kCrcBytes < payload_size) {
    return OutOfRangeError(
        "snapshot truncated: header promises " +
        std::to_string(payload_size) + "-byte payload, only " +
        std::to_string(bytes.size() - kHeaderBytes - kCrcBytes) +
        " bytes present");
  }
  if (bytes.size() - kHeaderBytes - kCrcBytes > payload_size) {
    return InvalidArgumentError(
        "snapshot has trailing bytes after the checksum");
  }
  std::span<const uint8_t> payload = bytes.subspan(kHeaderBytes, payload_size);
  uint32_t stored_crc = 0;
  for (int i = 0; i < 4; ++i) {
    stored_crc |= static_cast<uint32_t>(bytes[kHeaderBytes + payload_size + i])
                  << (8 * i);
  }
  if (Crc32(payload) != stored_crc) {
    return DataLossError("snapshot payload CRC32 mismatch");
  }
  SnapshotView view;
  view.type_tag = type_tag;
  view.payload.assign(payload.begin(), payload.end());
  return view;
}

Status WriteBytesToFile(const std::string& path,
                        std::span<const uint8_t> bytes) {
  // A process-unique temporary name, so concurrent writers racing to
  // write-back the same snapshot never scribble on each other's half-done
  // file; the final rename is atomic and last-writer-wins.
  static std::atomic<uint64_t> tmp_counter{0};
  const std::string tmp_path =
      path + ".tmp" +
      std::to_string(tmp_counter.fetch_add(1, std::memory_order_relaxed));
  std::FILE* file = std::fopen(tmp_path.c_str(), "wb");
  if (file == nullptr) {
    return InternalError("failed to open " + tmp_path + " for writing");
  }
  const size_t written =
      bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), file);
  const bool flushed = std::fclose(file) == 0;
  if (written != bytes.size() || !flushed) {
    std::remove(tmp_path.c_str());
    return InternalError("short write to " + tmp_path);
  }
  // Crash point between the temporary write and the rename: firing leaves
  // the .tmp sibling on disk, exactly as a process death here would — the
  // orphan the SnapshotStore construction sweep exists to reclaim.
  SELEST_RETURN_IF_ERROR(FaultInjector::Check(kFaultPointStoreRename));
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return InternalError("failed to rename " + tmp_path + " to " + path);
  }
  return Status::Ok();
}

StatusOr<std::vector<uint8_t>> ReadBytesFromFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return NotFoundError("no such snapshot file: " + path);
  }
  std::vector<uint8_t> bytes;
  std::array<uint8_t, 4096> chunk;
  size_t got;
  while ((got = std::fread(chunk.data(), 1, chunk.size(), file)) > 0) {
    bytes.insert(bytes.end(), chunk.begin(), chunk.begin() + got);
  }
  const bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error) {
    return InternalError("read error on snapshot file: " + path);
  }
  return bytes;
}

}  // namespace selest
