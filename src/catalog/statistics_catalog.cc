#include "src/catalog/statistics_catalog.h"

#include "src/est/estimator_snapshot.h"

namespace selest {

Catalog::Catalog(CatalogOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_capacity, options_.cache_shards) {
  if (!options_.snapshot_directory.empty()) {
    store_.emplace(options_.snapshot_directory);
  }
}

StatusOr<CatalogKey> Catalog::RegisterColumn(const std::string& relation,
                                             const std::string& attribute,
                                             const Domain& domain,
                                             std::span<const double> sample,
                                             const EstimatorConfig& config) {
  if (relation.empty() || attribute.empty()) {
    return InvalidArgumentError(
        "catalog registration needs non-empty relation and attribute names");
  }
  auto registration = std::make_shared<Registration>();
  registration->domain = domain;
  registration->sample.assign(sample.begin(), sample.end());
  registration->config = config;
  registration->key =
      CatalogKey{relation, attribute, FingerprintConfig(config)};
  const CatalogKey key = registration->key;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    registry_[key] = std::move(registration);
    default_keys_.emplace(std::make_pair(relation, attribute), key);
  }
  return key;
}

std::shared_ptr<const Catalog::Registration> Catalog::FindRegistration(
    const CatalogKey& key) const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  const auto it = registry_.find(key);
  return it == registry_.end() ? nullptr : it->second;
}

StatusOr<std::unique_ptr<SelectivityEstimator>> Catalog::LoadSnapshotWithRetry(
    const CatalogKey& key) {
  std::unique_ptr<SelectivityEstimator> loaded;
  size_t attempts = 0;
  const Status status = RetryWithBackoff(
      options_.retry,
      [&]() -> Status {
        auto result = store_->Get(key);
        if (!result.ok()) return result.status();
        loaded = std::move(result).value();
        return Status::Ok();
      },
      &attempts);
  if (attempts > 1) {
    snapshot_retries_.fetch_add(attempts - 1, std::memory_order_relaxed);
  }
  if (!status.ok()) return status;
  return loaded;
}

Status Catalog::PutSnapshotWithRetry(const CatalogKey& key,
                                     const SelectivityEstimator& estimator) {
  size_t attempts = 0;
  const Status status = RetryWithBackoff(
      options_.retry, [&]() { return store_->Put(key, estimator); },
      &attempts);
  if (attempts > 1) {
    snapshot_retries_.fetch_add(attempts - 1, std::memory_order_relaxed);
  }
  return status;
}

StatusOr<std::shared_ptr<const SelectivityEstimator>> Catalog::GetEstimator(
    const CatalogKey& key) {
  const std::shared_ptr<const Registration> registration =
      FindRegistration(key);
  if (registration == nullptr) {
    return NotFoundError("no catalog registration for " + key.relation + "." +
                         key.attribute);
  }
  if (std::shared_ptr<const SelectivityEstimator> cached = cache_.Lookup(key);
      cached != nullptr) {
    return cached;
  }
  // Cold miss: prefer the disk snapshot; any damage (kDataLoss and
  // friends) is counted and degrades to a rebuild.
  if (store_.has_value()) {
    auto loaded = LoadSnapshotWithRetry(key);
    if (loaded.ok()) {
      std::shared_ptr<const SelectivityEstimator> estimator =
          std::move(loaded).value();
      snapshot_loads_.fetch_add(1, std::memory_order_relaxed);
      cache_.Insert(key, estimator);
      return estimator;
    }
    if (loaded.status().code() != StatusCode::kNotFound) {
      snapshot_errors_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  SELEST_ASSIGN_OR_RETURN(
      std::unique_ptr<SelectivityEstimator> rebuilt,
      BuildEstimator(registration->sample, registration->domain,
                     registration->config));
  rebuilds_.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<const SelectivityEstimator> estimator = std::move(rebuilt);
  if (store_.has_value()) {
    const Status written = PutSnapshotWithRetry(key, *estimator);
    if (written.ok()) {
      writebacks_.fetch_add(1, std::memory_order_relaxed);
    } else {
      snapshot_errors_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  cache_.Insert(key, estimator);
  return estimator;
}

StatusOr<double> Catalog::Estimate(const CatalogKey& key,
                                   const RangeQuery& query) {
  SELEST_ASSIGN_OR_RETURN(
      const std::shared_ptr<const SelectivityEstimator> estimator,
      GetEstimator(key));
  estimates_.fetch_add(1, std::memory_order_relaxed);
  return estimator->EstimateSelectivity(query);
}

StatusOr<double> Catalog::Estimate(const std::string& relation,
                                   const std::string& attribute,
                                   const RangeQuery& query) {
  CatalogKey key;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    const auto it = default_keys_.find(std::make_pair(relation, attribute));
    if (it == default_keys_.end()) {
      return NotFoundError("no catalog registration for " + relation + "." +
                           attribute);
    }
    key = it->second;
  }
  return Estimate(key, query);
}

Status Catalog::ObserveTrueSelectivity(const CatalogKey& key,
                                       const RangeQuery& query,
                                       double true_selectivity) {
  // One write-back at a time: two racing clone-swaps would each start from
  // the same served state and the later Insert would drop the earlier
  // observation.
  std::lock_guard<std::mutex> lock(feedback_mutex_);
  SELEST_ASSIGN_OR_RETURN(
      const std::shared_ptr<const SelectivityEstimator> current,
      GetEstimator(key));
  if (!current->SupportsFeedback()) {
    feedback_rejected_.fetch_add(1, std::memory_order_relaxed);
    return FailedPreconditionError("estimator \"" + current->name() +
                                   "\" for " + key.relation + "." +
                                   key.attribute +
                                   " does not accept query feedback");
  }
  // Clone through a snapshot round-trip: the resident instance may be mid-
  // estimate on another thread, so the observation lands on a private copy
  // that replaces it atomically in the cache (readers holding the old
  // shared_ptr finish against the previous state).
  SELEST_ASSIGN_OR_RETURN(const std::vector<uint8_t> bytes,
                          SnapshotEstimator(*current));
  SELEST_ASSIGN_OR_RETURN(std::unique_ptr<SelectivityEstimator> clone,
                          LoadEstimatorSnapshot(bytes));
  SELEST_RETURN_IF_ERROR(
      clone->ObserveTrueSelectivity(query, true_selectivity));
  std::shared_ptr<const SelectivityEstimator> updated = std::move(clone);
  cache_.Insert(key, updated);
  feedback_applied_.fetch_add(1, std::memory_order_relaxed);
  // Persist the adapted state so a cold miss (or a restart) serves the
  // learned estimator, not the build-time prior.
  if (store_.has_value()) {
    const Status written = PutSnapshotWithRetry(key, *updated);
    if (written.ok()) {
      writebacks_.fetch_add(1, std::memory_order_relaxed);
    } else {
      snapshot_errors_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return Status::Ok();
}

Status Catalog::ObserveTrueSelectivity(const std::string& relation,
                                       const std::string& attribute,
                                       const RangeQuery& query,
                                       double true_selectivity) {
  CatalogKey key;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    const auto it = default_keys_.find(std::make_pair(relation, attribute));
    if (it == default_keys_.end()) {
      return NotFoundError("no catalog registration for " + relation + "." +
                           attribute);
    }
    key = it->second;
  }
  return ObserveTrueSelectivity(key, query, true_selectivity);
}

Status Catalog::Warm(const CatalogKey& key) {
  SELEST_ASSIGN_OR_RETURN(
      const std::shared_ptr<const SelectivityEstimator> estimator,
      GetEstimator(key));
  // GetEstimator writes back only on rebuild; a cache hit for a key whose
  // snapshot was deleted out-of-band still needs persisting here.
  if (store_.has_value() && !store_->Contains(key)) {
    const Status written = PutSnapshotWithRetry(key, *estimator);
    if (written.ok()) {
      writebacks_.fetch_add(1, std::memory_order_relaxed);
      return Status::Ok();
    }
    snapshot_errors_.fetch_add(1, std::memory_order_relaxed);
    return written;
  }
  return Status::Ok();
}

Status Catalog::WarmAll() {
  std::vector<CatalogKey> keys;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    keys.reserve(registry_.size());
    for (const auto& [key, registration] : registry_) keys.push_back(key);
  }
  Status first_error;
  for (const CatalogKey& key : keys) {
    const Status status = Warm(key);
    if (!status.ok() && first_error.ok()) first_error = status;
  }
  return first_error;
}

CatalogServeStats Catalog::serve_stats() const {
  CatalogServeStats stats;
  stats.estimates = estimates_.load(std::memory_order_relaxed);
  stats.snapshot_loads = snapshot_loads_.load(std::memory_order_relaxed);
  stats.snapshot_errors = snapshot_errors_.load(std::memory_order_relaxed);
  stats.rebuilds = rebuilds_.load(std::memory_order_relaxed);
  stats.writebacks = writebacks_.load(std::memory_order_relaxed);
  stats.snapshot_retries =
      snapshot_retries_.load(std::memory_order_relaxed);
  stats.feedback_applied = feedback_applied_.load(std::memory_order_relaxed);
  stats.feedback_rejected =
      feedback_rejected_.load(std::memory_order_relaxed);
  return stats;
}

CacheStats Catalog::cache_stats() const { return cache_.stats(); }

size_t Catalog::num_registrations() const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  return registry_.size();
}

}  // namespace selest

