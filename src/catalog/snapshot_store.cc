#include "src/catalog/snapshot_store.h"

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "src/est/estimator_snapshot.h"
#include "src/util/serialize.h"

namespace selest {

namespace {

// Filesystem-safe rendering of a key component, kept readable for
// debugging. Sanitizing can alias ("u(20)" and "u_20_"), so PathFor also
// appends the key's full hash — the sanitized text is a label, the hash is
// the identity.
std::string Sanitize(const std::string& text) {
  std::string safe;
  safe.reserve(text.size());
  for (char c : text) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                    c == '-' || c == '.';
    safe.push_back(ok ? c : '_');
  }
  return safe;
}

std::string Hex(uint64_t value) {
  constexpr char kDigits[] = "0123456789abcdef";
  std::string text(16, '0');
  for (int i = 15; i >= 0; --i) {
    text[static_cast<size_t>(i)] = kDigits[value & 0xFu];
    value >>= 4;
  }
  return text;
}

// FNV-1a over a string, continuing from `hash`.
uint64_t MixString(uint64_t hash, const std::string& text) {
  constexpr uint64_t kPrime = 1099511628211ull;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= kPrime;
  }
  // A separator byte so ("ab", "c") and ("a", "bc") hash differently.
  hash ^= 0xFFu;
  hash *= kPrime;
  return hash;
}

}  // namespace

size_t CatalogKeyHash::operator()(const CatalogKey& key) const {
  constexpr uint64_t kOffsetBasis = 14695981039346656037ull;
  uint64_t hash = MixString(kOffsetBasis, key.relation);
  hash = MixString(hash, key.attribute);
  hash ^= key.fingerprint;
  hash *= 1099511628211ull;
  return static_cast<size_t>(hash);
}

SnapshotStore::SnapshotStore(std::string directory)
    : directory_(std::move(directory)) {
  // Reclaim orphaned temporaries: a crash between the tmp-write and the
  // rename (see WriteBytesToFile) leaves a `<name>.snapshot.tmpN` sibling
  // no reader ever opens. Swept only at construction — a live writer's
  // in-flight temporary is never older than the store using it.
  std::error_code ec;
  if (!std::filesystem::is_directory(directory_, ec)) return;
  for (const auto& entry :
       std::filesystem::directory_iterator(directory_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.find(".snapshot.tmp") == std::string::npos) continue;
    std::error_code remove_ec;
    if (std::filesystem::remove(entry.path(), remove_ec) && !remove_ec) {
      ++swept_tmp_files_;
    }
  }
}

std::string SnapshotStore::LabelFor(const CatalogKey& key) {
  const uint64_t identity = CatalogKeyHash{}(key) ^ key.fingerprint;
  return Sanitize(key.relation) + "." + Sanitize(key.attribute) + "-" +
         Hex(identity);
}

std::string SnapshotStore::PathFor(const CatalogKey& key) const {
  return directory_ + "/" + LabelFor(key) + ".snapshot";
}

Status SnapshotStore::Put(const CatalogKey& key,
                          const SelectivityEstimator& estimator,
                          uint32_t* file_crc_out) {
  std::error_code ec;
  std::filesystem::create_directories(directory_, ec);
  if (ec) {
    return InternalError("cannot create snapshot directory " + directory_ +
                         ": " + ec.message());
  }
  SELEST_ASSIGN_OR_RETURN(const std::vector<uint8_t> bytes,
                          SnapshotEstimator(estimator));
  SELEST_RETURN_IF_ERROR(WriteBytesToFile(PathFor(key), bytes));
  puts_.fetch_add(1, std::memory_order_relaxed);
  if (file_crc_out != nullptr) *file_crc_out = SnapshotContentCrc(bytes);
  return Status::Ok();
}

StatusOr<std::unique_ptr<SelectivityEstimator>> SnapshotStore::Get(
    const CatalogKey& key) const {
  gets_.fetch_add(1, std::memory_order_relaxed);
  SELEST_ASSIGN_OR_RETURN(const std::vector<uint8_t> bytes,
                          ReadBytesFromFile(PathFor(key)));
  return LoadEstimatorSnapshot(bytes);
}

bool SnapshotStore::Contains(const CatalogKey& key) const {
  std::error_code ec;
  return std::filesystem::exists(PathFor(key), ec);
}

Status SnapshotStore::Delete(const CatalogKey& key) {
  std::error_code ec;
  std::filesystem::remove(PathFor(key), ec);
  if (ec) {
    return InternalError("cannot delete snapshot " + PathFor(key) + ": " +
                         ec.message());
  }
  return Status::Ok();
}

}  // namespace selest
