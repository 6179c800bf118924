// The serving catalog: build-once/serve-many (DESIGN.md §9).
//
// Database systems keep per-column statistics in a catalog that the
// optimizer consults; this module provides that layer for selest. Catalog
// persists *built* estimators as snapshots (est/estimator_snapshot.h) and
// serves estimates through a sharded LRU of deserialized instances. The
// serve path per key is
//
//   cache hit                        → estimate directly;
//   cache miss, valid disk snapshot  → deserialize, cache, estimate;
//   cache miss, missing/corrupt file → rebuild from the registered sample,
//                                      write the snapshot back, cache.
//
// A corrupt snapshot therefore degrades to a rebuild and a counter bump —
// never an error on the serve path (graceful degradation, DESIGN.md §8).
// All serve-path methods are safe for concurrent callers.
#ifndef SELEST_CATALOG_STATISTICS_CATALOG_H_
#define SELEST_CATALOG_STATISTICS_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/catalog/serving_cache.h"
#include "src/catalog/snapshot_store.h"
#include "src/data/domain.h"
#include "src/est/estimator_factory.h"
#include "src/query/range_query.h"
#include "src/util/retry.h"
#include "src/util/status.h"

namespace selest {

struct CatalogOptions {
  // Directory for persisted snapshots; empty disables the durable tier
  // (cold misses always rebuild and nothing is written back).
  std::string snapshot_directory;
  // Entry budget of the in-memory estimator cache.
  size_t cache_capacity = 64;
  size_t cache_shards = 8;
  // Retry discipline for the durable tier (snapshot load and write-back).
  // Transient failures — a racing rename, an injected store fault — retry
  // with capped backoff instead of failing the serve once and keeping a
  // stale or missing snapshot; corruption (kDataLoss and friends) still
  // fails fast into the rebuild path (util/retry.h).
  RetryOptions retry;
};

// Serve-path counters. Read with relaxed atomics: exact once concurrent
// traffic has quiesced.
struct CatalogServeStats {
  uint64_t estimates = 0;        // Estimate() calls answered
  uint64_t snapshot_loads = 0;   // cold misses served from a disk snapshot
  uint64_t snapshot_errors = 0;  // snapshots rejected (corrupt/unwritable)
  uint64_t rebuilds = 0;         // cold misses rebuilt from the sample
  uint64_t writebacks = 0;       // snapshots persisted after a rebuild
  uint64_t snapshot_retries = 0; // extra store attempts beyond the first
  uint64_t feedback_applied = 0;  // observations folded into a served column
  uint64_t feedback_rejected = 0; // feedback to a non-query-driven estimator
};

class Catalog {
 public:
  explicit Catalog(CatalogOptions options = {});

  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  // Registers a column under (relation, attribute) with the sample the
  // estimator builds from; returns the serving key, whose fingerprint
  // component is FingerprintConfig(config). Registering several configs
  // for one column yields distinct keys; the first registration becomes
  // the column's default for the (relation, attribute) Estimate overload.
  StatusOr<CatalogKey> RegisterColumn(const std::string& relation,
                                      const std::string& attribute,
                                      const Domain& domain,
                                      std::span<const double> sample,
                                      const EstimatorConfig& config);

  // Resolves the key through cache → snapshot → rebuild. The returned
  // estimator stays valid after eviction (shared ownership).
  StatusOr<std::shared_ptr<const SelectivityEstimator>> GetEstimator(
      const CatalogKey& key);

  // Serve-path estimate for a registered key.
  StatusOr<double> Estimate(const CatalogKey& key, const RangeQuery& query);

  // Serve-path estimate via the column's default config.
  StatusOr<double> Estimate(const std::string& relation,
                            const std::string& attribute,
                            const RangeQuery& query);

  // Feedback write-back (DESIGN.md §14): folds the true selectivity of an
  // executed query back into the column's served estimator. The resident
  // estimator is never mutated in place — readers may be serving it
  // concurrently — instead it is cloned through a snapshot round-trip, the
  // clone observes the feedback, and the cache entry is swapped to the
  // clone (and re-persisted when the durable tier is enabled), RCU-style.
  // kFailedPrecondition when the key's estimator is not query-driven.
  // Concurrent write-backs are serialized per catalog so no observation is
  // lost to a racing clone-swap.
  Status ObserveTrueSelectivity(const CatalogKey& key, const RangeQuery& query,
                                double true_selectivity);

  // Write-back via the column's default config.
  Status ObserveTrueSelectivity(const std::string& relation,
                                const std::string& attribute,
                                const RangeQuery& query,
                                double true_selectivity);

  // Ensures the key is resident in cache and, when the durable tier is
  // enabled, persisted on disk — the "build once" half of the contract.
  Status Warm(const CatalogKey& key);

  // Warms every registration; returns the first failure (after attempting
  // all of them).
  Status WarmAll();

  CatalogServeStats serve_stats() const;
  CacheStats cache_stats() const;
  // The durable tier, or nullptr when snapshots are disabled.
  const SnapshotStore* store() const {
    return store_.has_value() ? &*store_ : nullptr;
  }
  size_t num_registrations() const;

 private:
  struct Registration {
    Domain domain;
    std::vector<double> sample;
    EstimatorConfig config;
    CatalogKey key;
  };

  std::shared_ptr<const Registration> FindRegistration(
      const CatalogKey& key) const;

  CatalogOptions options_;
  std::optional<SnapshotStore> store_;
  ServingCache cache_;

  mutable std::mutex registry_mutex_;
  std::unordered_map<CatalogKey, std::shared_ptr<const Registration>,
                     CatalogKeyHash>
      registry_;
  // First-registered key per column, for the (relation, attribute) serve
  // overload.
  std::map<std::pair<std::string, std::string>, CatalogKey> default_keys_;

  mutable std::atomic<uint64_t> estimates_{0};
  mutable std::atomic<uint64_t> snapshot_loads_{0};
  mutable std::atomic<uint64_t> snapshot_errors_{0};
  mutable std::atomic<uint64_t> rebuilds_{0};
  mutable std::atomic<uint64_t> writebacks_{0};
  mutable std::atomic<uint64_t> snapshot_retries_{0};
  mutable std::atomic<uint64_t> feedback_applied_{0};
  mutable std::atomic<uint64_t> feedback_rejected_{0};

  // Serializes feedback write-backs (clone → observe → swap) so concurrent
  // observations compose instead of overwriting each other's clones.
  std::mutex feedback_mutex_;

  // store_->Get / store_->Put under the configured retry policy, counting
  // extra attempts into snapshot_retries_.
  StatusOr<std::unique_ptr<SelectivityEstimator>> LoadSnapshotWithRetry(
      const CatalogKey& key);
  Status PutSnapshotWithRetry(const CatalogKey& key,
                              const SelectivityEstimator& estimator);
};

}  // namespace selest

#endif  // SELEST_CATALOG_STATISTICS_CATALOG_H_
