// The live server's durable tier: estimator snapshots as files.
//
// One file per CatalogKey, written atomically (temporary sibling +
// rename), so readers never observe a torn snapshot. Corruption on disk —
// truncation, bit flips, a future format version — surfaces as Status
// from Get (see est/estimator_snapshot.h for the taxonomy). The live
// server writes every published generation back here; recovery
// (durability/recovery_manager.h) loads a snapshot only when a WAL mark
// proves it, and replays the log otherwise.
#ifndef SELEST_CATALOG_SNAPSHOT_STORE_H_
#define SELEST_CATALOG_SNAPSHOT_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "src/est/selectivity_estimator.h"
#include "src/util/status.h"

namespace selest {

// Identity of one persisted estimator: the column it summarizes plus the
// fingerprint of the estimator configuration (see FingerprintConfig in
// est/estimator_factory.h). Different configs over the same column get
// distinct snapshot files and WAL directories.
struct CatalogKey {
  std::string relation;
  std::string attribute;
  uint64_t fingerprint = 0;

  friend bool operator==(const CatalogKey& a, const CatalogKey& b) {
    return a.fingerprint == b.fingerprint && a.relation == b.relation &&
           a.attribute == b.attribute;
  }
};

// FNV-1a over relation, attribute and fingerprint. LabelFor folds it into
// every snapshot and WAL path, so changing it orphans existing files.
struct CatalogKeyHash {
  size_t operator()(const CatalogKey& key) const;
};

class SnapshotStore {
 public:
  // Snapshots live under `directory` (created on first Put if missing).
  // Construction sweeps orphaned `*.snapshot.tmp*` siblings left by a
  // crash between temporary write and rename (the `store/rename` crash
  // point) — they are invisible to every read path and would otherwise
  // leak forever.
  explicit SnapshotStore(std::string directory);

  // Serializes and atomically persists the estimator's snapshot.
  // `file_crc_out` (may be null) receives the CRC32 of the whole written
  // file — the token WAL snapshot-mark records carry so recovery can
  // prove which marks describe the snapshot actually on disk.
  Status Put(const CatalogKey& key, const SelectivityEstimator& estimator,
             uint32_t* file_crc_out = nullptr);

  // Loads and validates the snapshot: kNotFound when no file exists,
  // kDataLoss / kOutOfRange / kFailedPrecondition / kInvalidArgument per
  // the envelope contract when the bytes are damaged.
  StatusOr<std::unique_ptr<SelectivityEstimator>> Get(
      const CatalogKey& key) const;

  bool Contains(const CatalogKey& key) const;

  // Removes the snapshot file; OK when it was already absent.
  Status Delete(const CatalogKey& key);

  // The file path a key maps to (exposed so corruption tests can damage
  // snapshots in place).
  std::string PathFor(const CatalogKey& key) const;

  // Filesystem-safe label of a key: sanitized relation.attribute plus the
  // key's identity hash. Shared with the per-column WAL directory naming,
  // so a column's snapshot and its log are visibly siblings on disk.
  static std::string LabelFor(const CatalogKey& key);

  const std::string& directory() const { return directory_; }

  uint64_t puts() const { return puts_.load(std::memory_order_relaxed); }
  uint64_t gets() const { return gets_.load(std::memory_order_relaxed); }
  // Orphaned temporary files removed by the construction sweep.
  uint64_t swept_tmp_files() const { return swept_tmp_files_; }

 private:
  std::string directory_;
  uint64_t swept_tmp_files_ = 0;

  mutable std::atomic<uint64_t> puts_{0};
  mutable std::atomic<uint64_t> gets_{0};
};

}  // namespace selest

#endif  // SELEST_CATALOG_SNAPSHOT_STORE_H_
