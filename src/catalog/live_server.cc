#include "src/catalog/live_server.h"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <string_view>
#include <thread>
#include <vector>

#include "src/data/io.h"
#include "src/est/estimator_snapshot.h"
#include "src/exec/fault_injection.h"
#include "src/util/epoch.h"

namespace selest {

namespace {

// Readers with a slot index below this bump a serve shard of their own;
// later ones share one more.
constexpr size_t kServeShards = 16;

struct alignas(64) ServeShard {
  std::atomic<uint64_t> count{0};
};

// FNV-1a over a name and a separator byte, continuing from `hash`; the
// separator keeps ("ab", "c") apart from ("a", "bc").
uint64_t MixName(uint64_t hash, std::string_view name) {
  constexpr uint64_t kPrime = 1099511628211ull;
  for (const unsigned char c : name) hash = (hash ^ c) * kPrime;
  return (hash ^ 0xffu) * kPrime;
}

// Folded so that the low bits, which pick a bucket, see the high ones.
uint64_t NameHash(std::string_view relation, std::string_view attribute) {
  const uint64_t hash =
      MixName(MixName(14695981039346656037ull, relation), attribute);
  return hash ^ hash >> 32;
}

// Out of line, so the read path's frame does not carry the message build.
Status UnknownColumn(const std::string& relation,
                     const std::string& attribute) {
  return NotFoundError("no live registration for " + relation + "." +
                       attribute);
}

}  // namespace

// Per-column state. The serving side is the atomic `current` pointer and
// the serve shards; everything the ingest side mutates lives behind
// `ingest_mutex`. A refresh holds the mutex only while capturing its
// inputs (a snapshot of the accumulator, or a copy of the reservoir and
// the feedback ring), never while building, replaying or flipping, so
// ingest stalls are bounded by a memcpy.
struct LiveStatisticsServer::Column {
  Column(std::string relation_name, std::string attribute_name,
         const Domain& column_domain, const EstimatorConfig& column_config,
         CatalogKey column_key, const LiveServerOptions& options)
      : relation(std::move(relation_name)),
        attribute(std::move(attribute_name)),
        domain(column_domain),
        config(column_config),
        key(std::move(column_key)),
        reservoir(options.reservoir_capacity, options.reservoir_decay,
                  options.seed ^ column_key.fingerprint) {}

  // The served generation. Readers load it once inside an epoch guard and
  // answer entirely from it; Publish retires the one it replaces. First, so
  // that a lookup's name compare and this load share a cache line.
  std::atomic<const LiveGeneration*> current{nullptr};
  const std::string relation;
  const std::string attribute;
  const Domain domain;
  const EstimatorConfig config;
  const CatalogKey key;

  // Serve counts by reader slot (EpochGuard::reader). A slot below
  // kServeShards is held by one thread at a time, so its shard has a
  // single writer and needs no read-modify-write; the rest share the last
  // shard.
  std::array<ServeShard, kServeShards + 1> serves;

  void CountServe(size_t reader) {
    if (reader < kServeShards) {
      std::atomic<uint64_t>& count = serves[reader].count;
      count.store(count.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
    } else {
      serves[kServeShards].count.fetch_add(1, std::memory_order_relaxed);
    }
  }

  uint64_t TotalServes() const {
    uint64_t total = 0;
    for (const ServeShard& shard : serves) {
      total += shard.count.load(std::memory_order_relaxed);
    }
    return total;
  }

  // The owner of `*current`, and with keep_generation_history every
  // generation published so far.
  mutable std::mutex generation_mutex;
  std::shared_ptr<const LiveGeneration> generation;
  std::vector<std::shared_ptr<const LiveGeneration>> history;

  std::shared_ptr<const LiveGeneration> CurrentGeneration() const {
    std::lock_guard<std::mutex> lock(generation_mutex);
    return generation;
  }

  std::mutex ingest_mutex;
  // Mergeable clone of the registration build; null when the estimator
  // kind does not support FoldRows (refreshes then rebuild from the
  // reservoir).
  std::unique_ptr<SelectivityEstimator> accumulator;
  DecayingReservoir reservoir;
  // The newest query-feedback observations, oldest first; every rebuild
  // replays them so a refresh keeps what the learner learned.
  std::vector<FeedbackObservation> feedback;
  uint64_t total_rows = 0;  // registration rows + accepted ingest rows
  // Durable ingest log; null when LiveServerOptions::wal_directory is
  // empty. Guarded by ingest_mutex like the rest of the ingest side.
  std::unique_ptr<WriteAheadLog> wal;

  // At most one refresh or feedback publish per column at a time;
  // refresh triggers that lose the claim coalesce into its holder.
  std::atomic<bool> refresh_in_flight{false};

  std::atomic<ServerHealth> health{ServerHealth::kHealthy};
  std::atomic<uint64_t> consecutive_wal_failures{0};
  // TTL reference point. Re-anchored downward when the clock steps
  // backwards past it, so a non-monotonic clock neither fires a spurious
  // refresh (unsigned wrap) nor wedges the TTL forever.
  std::atomic<uint64_t> ttl_anchor_ticks{0};

  // Recovery provenance, written once by RecoverColumn before the column
  // becomes visible.
  bool recovered = false;
  bool recovery_used_snapshot = false;
  size_t recovered_quarantined_segments = 0;
  uint64_t recovered_truncated_bytes = 0;

  std::atomic<uint64_t> ingested_rows{0};
  std::atomic<uint64_t> rows_since_refresh{0};
  std::atomic<uint64_t> refreshes{0};
  std::atomic<uint64_t> refresh_errors{0};
  std::atomic<uint64_t> merge_refreshes{0};
  std::atomic<uint64_t> rebuild_refreshes{0};
  std::atomic<uint64_t> ttl_refreshes{0};
  std::atomic<uint64_t> threshold_refreshes{0};
  std::atomic<uint64_t> writebacks{0};
  std::atomic<uint64_t> writeback_errors{0};
  std::atomic<uint64_t> wal_appends{0};
  std::atomic<uint64_t> wal_append_errors{0};
  std::atomic<uint64_t> refresh_retries{0};
  std::atomic<uint64_t> writeback_retries{0};
};

// The registry as readers see it, immutable once published: open
// addressing over a power-of-two bucket array at most half full. A bucket
// keeps its column's NameHash; a lookup confirms a hash match by comparing
// the names, and copies no key, allocates nothing and touches no
// reference count. `columns_` owns the columns; a bucket points at one and
// names its owner.
class LiveStatisticsServer::Table {
 public:
  Table() { Index(); }

  // `base`'s columns plus `column`, which takes the place of a column of
  // the same name.
  Table(const Table& base, std::shared_ptr<Column> column)
      : columns_(base.columns_) {
    const auto same = std::find_if(
        columns_.begin(), columns_.end(),
        [&](const std::shared_ptr<Column>& existing) {
          return existing->relation == column->relation &&
                 existing->attribute == column->attribute;
        });
    if (same != columns_.end()) {
      *same = std::move(column);
    } else {
      columns_.push_back(std::move(column));
    }
    Index();
  }

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  struct Bucket {
    uint64_t hash = 0;
    Column* column = nullptr;  // null: empty
    size_t index = 0;  // the owner's position in columns_
  };

  const Bucket* Find(std::string_view relation,
                     std::string_view attribute) const {
    const uint64_t hash = NameHash(relation, attribute);
    for (uint64_t i = hash & mask_;; i = (i + 1) & mask_) {
      const Bucket& bucket = buckets_[i];
      if (bucket.column == nullptr) return nullptr;
      if (bucket.hash == hash && bucket.column->relation == relation &&
          bucket.column->attribute == attribute) {
        return &bucket;
      }
    }
  }

  const std::shared_ptr<Column>& Owner(const Bucket& bucket) const {
    return columns_[bucket.index];
  }

  const std::vector<std::shared_ptr<Column>>& columns() const {
    return columns_;
  }

 private:
  void Index() {
    buckets_.assign(std::bit_ceil(std::max<size_t>(2, 2 * columns_.size())),
                    Bucket{});
    mask_ = buckets_.size() - 1;
    for (size_t index = 0; index < columns_.size(); ++index) {
      Column* column = columns_[index].get();
      const uint64_t hash = NameHash(column->relation, column->attribute);
      uint64_t i = hash & mask_;
      while (buckets_[i].column != nullptr) i = (i + 1) & mask_;
      buckets_[i] = Bucket{hash, column, index};
    }
  }

  std::vector<std::shared_ptr<Column>> columns_;
  std::vector<Bucket> buckets_;
  uint64_t mask_ = 0;
};

namespace {

// Replays feedback in ring order onto a fresh build.
Status ReplayFeedback(SelectivityEstimator& estimator,
                      std::span<const FeedbackObservation> ring) {
  for (const FeedbackObservation& observation : ring) {
    SELEST_RETURN_IF_ERROR(estimator.ObserveTrueSelectivity(
        observation.query, observation.true_selectivity));
  }
  return Status::Ok();
}

}  // namespace

const char* ServerHealthName(ServerHealth health) {
  switch (health) {
    case ServerHealth::kHealthy:
      return "healthy";
    case ServerHealth::kDegraded:
      return "degraded";
    case ServerHealth::kReadOnly:
      return "read-only";
  }
  return "unknown";
}

std::string LiveStatisticsServer::WalDirectoryFor(const std::string& wal_root,
                                                  const CatalogKey& key) {
  return wal_root + "/" + SnapshotStore::LabelFor(key) + ".wal";
}

LiveStatisticsServer::LiveStatisticsServer(LiveServerOptions options)
    : options_(std::move(options)), table_(new Table) {
  if (!options_.snapshot_directory.empty()) {
    store_.emplace(options_.snapshot_directory);
  }
}

LiveStatisticsServer::~LiveStatisticsServer() {
  WaitForRefreshes();
  // No reader can be inside a server being destroyed, so its table goes
  // now; tables and generations it retired earlier go with the next
  // reclaim that finds their readers gone. Such a table may still own
  // this table's columns, so each column's log closes here, before a
  // restarted server can reopen its files.
  const Table* table = table_.load(std::memory_order_relaxed);
  for (const std::shared_ptr<Column>& column : table->columns()) {
    std::lock_guard<std::mutex> lock(column->ingest_mutex);
    column->wal.reset();
  }
  delete table;
  ReclaimRetired();
}

uint64_t LiveStatisticsServer::Now() const {
  if (options_.clock) return options_.clock();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::shared_ptr<LiveStatisticsServer::Column> LiveStatisticsServer::FindColumn(
    const std::string& relation, const std::string& attribute) const {
  const EpochGuard guard;
  const Table* table = table_.load(std::memory_order_seq_cst);
  const Table::Bucket* bucket = table->Find(relation, attribute);
  return bucket == nullptr ? nullptr : table->Owner(*bucket);
}

void LiveStatisticsServer::InstallColumn(std::shared_ptr<Column> column) {
  std::unique_ptr<const Table> replaced;
  {
    std::lock_guard<std::mutex> lock(table_mutex_);
    const Table* current = table_.load(std::memory_order_relaxed);
    replaced.reset(table_.exchange(new Table(*current, std::move(column)),
                                   std::memory_order_seq_cst));
  }
  // A replaced column lives on in the old table until no reader can hold
  // it.
  Retire(std::move(replaced));
}

Status LiveStatisticsServer::RegisterColumn(const std::string& relation,
                                            const std::string& attribute,
                                            const Domain& domain,
                                            const EstimatorConfig& config,
                                            std::span<const double> initial_rows) {
  if (relation.empty() || attribute.empty()) {
    return InvalidArgumentError(
        "live-server registration needs non-empty relation and attribute "
        "names");
  }
  SELEST_ASSIGN_OR_RETURN(
      std::unique_ptr<SelectivityEstimator> built,
      BuildEstimator(initial_rows, domain, config));
  auto column = std::make_shared<Column>(
      relation, attribute, domain, config,
      CatalogKey{relation, attribute, FingerprintConfig(config)}, options_);
  if (built->SupportsMerge()) {
    // A second deterministic build of the same inputs gives the private
    // mutable accumulator; the first stays immutable and gets served.
    SELEST_ASSIGN_OR_RETURN(column->accumulator,
                            BuildEstimator(initial_rows, domain, config));
  }
  if (!options_.wal_directory.empty()) {
    // A fresh registration replaces the column's durable history: reset
    // the log and make the registration rows its first record. A column
    // that cannot log its baseline is not durable, so failure here fails
    // the registration rather than silently serving volatile state.
    SELEST_ASSIGN_OR_RETURN(
        column->wal,
        WriteAheadLog::Open(WalDirectoryFor(options_.wal_directory,
                                            column->key),
                            options_.wal, /*reset=*/true));
    SELEST_RETURN_IF_ERROR(column->wal->Append(
        WalRecordType::kRegister, EncodeRowBatch(initial_rows)));
    SELEST_RETURN_IF_ERROR(column->wal->Sync());
  }
  column->reservoir.AddBatch(initial_rows);
  column->total_rows = initial_rows.size();

  auto generation = std::make_shared<LiveGeneration>();
  generation->estimator =
      std::shared_ptr<const SelectivityEstimator>(std::move(built));
  generation->number = 1;
  generation->built_at_ticks = Now();
  generation->rows_at_build = initial_rows.size();
  generation->merged = false;
  generation->covered_sequence =
      column->wal != nullptr ? column->wal->last_sequence() : 0;
  Publish(column, std::move(generation));
  InstallColumn(std::move(column));
  return Status::Ok();
}

Status LiveStatisticsServer::RecoverColumn(const std::string& relation,
                                           const std::string& attribute,
                                           const Domain& domain,
                                           const EstimatorConfig& config) {
  if (options_.wal_directory.empty()) {
    return FailedPreconditionError(
        "RecoverColumn requires LiveServerOptions::wal_directory");
  }
  if (relation.empty() || attribute.empty()) {
    return InvalidArgumentError(
        "live-server recovery needs non-empty relation and attribute "
        "names");
  }
  const CatalogKey key{relation, attribute, FingerprintConfig(config)};
  SELEST_ASSIGN_OR_RETURN(
      std::unique_ptr<WriteAheadLog> wal,
      WriteAheadLog::Open(WalDirectoryFor(options_.wal_directory, key),
                          options_.wal));
  const RecoveryManager manager(store(), RecoveryOptions{options_.retry});
  SELEST_ASSIGN_OR_RETURN(RecoveredColumn recovered,
                          manager.Recover(key, *wal, domain, config));

  auto column = std::make_shared<Column>(relation, attribute, domain,
                                         config, key, options_);
  // Replaying the batches in their original order through the identically
  // seeded reservoir reproduces the pre-crash reservoir bit-for-bit, so
  // non-mergeable rebuilds land on the same estimator too.
  column->reservoir.AddBatch(recovered.registration_rows);
  for (const std::vector<double>& batch : recovered.ingest_batches) {
    column->reservoir.AddBatch(batch);
  }
  column->total_rows = recovered.total_rows;

  std::unique_ptr<SelectivityEstimator> serving;
  bool merged = false;
  if (recovered.accumulator != nullptr) {
    // Mergeable: serve a serialize-clone of the recovered accumulator —
    // bit-identical to the pre-crash fold state over every durable row.
    SELEST_ASSIGN_OR_RETURN(const std::vector<uint8_t> bytes,
                            SnapshotEstimator(*recovered.accumulator));
    SELEST_ASSIGN_OR_RETURN(serving, LoadEstimatorSnapshot(bytes));
    column->accumulator = std::move(recovered.accumulator);
    merged = true;
  } else {
    const std::span<const double> view = column->reservoir.values();
    const std::vector<double> rows(view.begin(), view.end());
    SELEST_ASSIGN_OR_RETURN(serving, BuildEstimator(rows, domain, config));
    // The same replay a rebuild refresh runs: recovery equals a refresh
    // at the crash point.
    SELEST_RETURN_IF_ERROR(ReplayFeedback(*serving, recovered.feedback));
    column->feedback = std::move(recovered.feedback);
  }
  column->wal = std::move(wal);
  column->recovered = true;
  column->recovery_used_snapshot = recovered.used_snapshot;
  column->recovered_quarantined_segments = recovered.quarantined_segments;
  column->recovered_truncated_bytes = recovered.truncated_bytes;

  auto generation = std::make_shared<LiveGeneration>();
  generation->estimator =
      std::shared_ptr<const SelectivityEstimator>(std::move(serving));
  generation->number = recovered.last_generation + 1;
  generation->built_at_ticks = Now();
  generation->rows_at_build = recovered.total_rows;
  generation->merged = merged;
  generation->covered_sequence = recovered.last_sequence;
  Publish(column, std::move(generation));
  InstallColumn(std::move(column));
  return Status::Ok();
}

void LiveStatisticsServer::Publish(
    const std::shared_ptr<Column>& column,
    std::shared_ptr<const LiveGeneration> generation) {
  std::shared_ptr<const LiveGeneration> replaced;
  {
    std::lock_guard<std::mutex> lock(column->generation_mutex);
    column->current.store(generation.get(), std::memory_order_seq_cst);
    replaced = std::exchange(column->generation, generation);
    if (options_.keep_generation_history) {
      column->history.push_back(generation);
    }
  }
  // Readers may still be answering from `replaced`; the epoch domain drops
  // it once they have all left.
  Retire(std::move(replaced));
  column->ttl_anchor_ticks.store(generation->built_at_ticks,
                                 std::memory_order_relaxed);
  if (!store_.has_value()) return;
  // Write-back with retry: a transient store failure must not cost the
  // generation its durable snapshot when the next attempt would succeed.
  uint32_t file_crc = 0;
  size_t attempts = 0;
  const Status written = RetryWithBackoff(
      options_.retry,
      [&]() { return store_->Put(column->key, *generation->estimator,
                                 &file_crc); },
      &attempts);
  if (attempts > 1) {
    column->writeback_retries.fetch_add(attempts - 1,
                                        std::memory_order_relaxed);
  }
  if (!written.ok()) {
    column->writeback_errors.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  column->writebacks.fetch_add(1, std::memory_order_relaxed);
  if (column->wal != nullptr) {
    // Put-then-mark: the mark carries the file's CRC, so recovery only
    // trusts it when the file on disk is the one this mark describes. A
    // failed mark merely forfeits the snapshot fast path (full replay
    // still recovers everything).
    std::lock_guard<std::mutex> lock(column->ingest_mutex);
    const Status marked = [&]() -> Status {
      SELEST_RETURN_IF_ERROR(column->wal->Append(
          WalRecordType::kSnapshotMark,
          EncodeSnapshotMark(generation->covered_sequence,
                             generation->number, file_crc)));
      return column->wal->Sync();
    }();
    if (!marked.ok()) {
      column->writeback_errors.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

Status LiveStatisticsServer::Ingest(const std::string& relation,
                                    const std::string& attribute,
                                    std::span<const double> rows) {
  const std::shared_ptr<Column> column = FindColumn(relation, attribute);
  if (column == nullptr) {
    return UnknownColumn(relation, attribute);
  }
  if (rows.empty()) return Status::Ok();
  if (column->health.load(std::memory_order_relaxed) ==
      ServerHealth::kReadOnly) {
    return FailedPreconditionError(
        relation + "." + attribute +
        " is read-only after repeated WAL failures; serving continues "
        "from the last generation (ResetColumnHealth to re-enable "
        "ingest)");
  }
  std::vector<double> clamped(rows.begin(), rows.end());
  for (double& v : clamped) {
    // Clamp passes NaN through, and a logged NaN would fail every later
    // rebuild and recovery of the column: reject the batch before the log.
    if (std::isnan(v)) {
      return InvalidArgumentError("ingest batch for " + relation + "." +
                                  attribute + " holds a NaN row");
    }
    v = column->domain.Clamp(v);
  }

  bool threshold_hit = false;
  {
    std::lock_guard<std::mutex> lock(column->ingest_mutex);
    if (column->wal != nullptr) {
      // WAL-first: the batch must be logged before any in-memory state
      // changes. On failure nothing was folded, so the caller can retry
      // the exact batch without double-counting. With sync_every_append
      // (default) the append is durable on return; in buffered mode it
      // stays pending until the group-commit Sync at the next refresh
      // boundary — the documented durability trade.
      const Status logged = column->wal->Append(WalRecordType::kIngest,
                                                EncodeRowBatch(clamped));
      NoteWalResult(column, logged.ok());
      SELEST_RETURN_IF_ERROR(logged);
    }
    if (column->accumulator != nullptr) {
      SELEST_RETURN_IF_ERROR(column->accumulator->FoldRows(clamped));
    }
    column->reservoir.AddBatch(clamped);
    column->total_rows += clamped.size();
    column->ingested_rows.fetch_add(clamped.size(),
                                    std::memory_order_relaxed);
    const uint64_t since = column->rows_since_refresh.fetch_add(
                               clamped.size(), std::memory_order_relaxed) +
                           clamped.size();
    threshold_hit = options_.refresh_ingest_rows > 0 &&
                    since >= options_.refresh_ingest_rows;
  }
  // The batch is logged and folded: from here on Ingest succeeds. A failed
  // refresh is counted in refresh_errors; returning it would invite a
  // retry that folds the batch twice.
  if (threshold_hit) {
    MaybeTriggerRefresh(column, &column->threshold_refreshes);
  }
  if (TtlExpired(*column)) {
    MaybeTriggerRefresh(column, &column->ttl_refreshes);
  }
  return Status::Ok();
}

StatusOr<size_t> LiveStatisticsServer::IngestFromFile(
    const std::string& relation, const std::string& attribute,
    const std::string& path) {
  SELEST_ASSIGN_OR_RETURN(const Dataset data, LoadDatasetText(path));
  SELEST_RETURN_IF_ERROR(Ingest(relation, attribute, data.values()));
  return data.size();
}

StatusOr<uint64_t> LiveStatisticsServer::IngestFromSource(
    const std::string& relation, const std::string& attribute,
    ColumnSource& source) {
  source.Reset();
  uint64_t rows = 0;
  for (std::span<const double> chunk = source.NextChunk(); !chunk.empty();
       chunk = source.NextChunk()) {
    SELEST_RETURN_IF_ERROR(Ingest(relation, attribute, chunk));
    rows += chunk.size();
  }
  return rows;
}

StatusOr<double> LiveStatisticsServer::Estimate(const std::string& relation,
                                                const std::string& attribute,
                                                const RangeQuery& query) {
  SELEST_ASSIGN_OR_RETURN(const ServedEstimate served,
                          EstimateDetailed(relation, attribute, query));
  return served.value;
}

StatusOr<ServedEstimate> LiveStatisticsServer::EstimateDetailed(
    const std::string& relation, const std::string& attribute,
    const RangeQuery& query) {
  ServedEstimate served;
  std::shared_ptr<Column> stale;  // set only when the TTL has expired
  {
    // Everything reached inside the guard stays alive until it closes: the
    // table, the column and the generation, whatever a writer publishes
    // meanwhile.
    const EpochGuard guard;
    const Table* table = table_.load(std::memory_order_seq_cst);
    const Table::Bucket* bucket = table->Find(relation, attribute);
    if (bucket == nullptr) {
      return UnknownColumn(relation, attribute);
    }
    Column& column = *bucket->column;
    // One load; value and generation number come from the same epoch even
    // if a flip lands mid-call.
    const LiveGeneration* generation =
        column.current.load(std::memory_order_seq_cst);
    served.value = generation->estimator->EstimateSelectivity(query);
    served.generation = generation->number;
    column.CountServe(guard.reader());
    if (options_.ttl_ticks != 0 && TtlExpired(column)) {
      stale = table->Owner(*bucket);
    }
  }
  // After the guard: with background_refresh off the refresh runs inline,
  // and its publish must not happen inside this reader's own section.
  if (stale != nullptr) {
    MaybeTriggerRefresh(stale, &stale->ttl_refreshes);
  }
  return served;
}

void LiveStatisticsServer::NoteWalResult(
    const std::shared_ptr<Column>& column, bool ok) {
  if (ok) {
    column->wal_appends.fetch_add(1, std::memory_order_relaxed);
    column->consecutive_wal_failures.store(0, std::memory_order_relaxed);
    // A durable append heals a degraded column; read-only stays latched
    // (this path is unreachable read-only anyway — Ingest gates first).
    ServerHealth expected = ServerHealth::kDegraded;
    column->health.compare_exchange_strong(expected, ServerHealth::kHealthy);
    return;
  }
  column->wal_append_errors.fetch_add(1, std::memory_order_relaxed);
  const uint64_t failures = column->consecutive_wal_failures.fetch_add(
                                1, std::memory_order_relaxed) +
                            1;
  const ServerHealth next = failures >= options_.read_only_after_failures
                                ? ServerHealth::kReadOnly
                                : ServerHealth::kDegraded;
  // Only walk downhill: a concurrent success must not be overwritten from
  // degraded back to read-only by a stale failure, and read-only never
  // self-clears.
  ServerHealth current = column->health.load(std::memory_order_relaxed);
  while (static_cast<int>(next) > static_cast<int>(current) &&
         !column->health.compare_exchange_weak(current, next)) {
  }
}

bool LiveStatisticsServer::TtlExpired(Column& column) const {
  if (options_.ttl_ticks == 0) return false;
  const uint64_t now = Now();
  const uint64_t anchor =
      column.ttl_anchor_ticks.load(std::memory_order_relaxed);
  if (now < anchor) {
    // The clock stepped backwards past the anchor (an injected fake, NTP,
    // a suspend glitch). `now - anchor` would wrap to an enormous age and
    // fire spuriously; never re-anchoring would wedge the TTL until the
    // clock catches back up. Re-anchor at the new "now": the TTL restarts
    // from here and fires after a full honest interval.
    column.ttl_anchor_ticks.store(now, std::memory_order_relaxed);
    return false;
  }
  return now - anchor >= options_.ttl_ticks;
}

void LiveStatisticsServer::MaybeTriggerRefresh(
    const std::shared_ptr<Column>& column,
    std::atomic<uint64_t>* trigger_counter) {
  if (column->refresh_in_flight.exchange(true)) return;
  if (trigger_counter != nullptr) {
    trigger_counter->fetch_add(1, std::memory_order_relaxed);
  }
  if (!options_.background_refresh) {
    (void)DoRefresh(column);  // a failure is counted in refresh_errors
    column->refresh_in_flight.store(false);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(refresh_mutex_);
    ++pending_refreshes_;
  }
  ThreadPool* pool =
      options_.pool != nullptr ? options_.pool : &ThreadPool::Default();
  pool->Schedule([this, column]() {
    // The follow-up a release may schedule is counted before
    // pending_refreshes_ drops, so WaitForRefreshes covers it.
    ReleaseRefreshClaim(column, DoRefresh(column).ok());
    std::lock_guard<std::mutex> lock(refresh_mutex_);
    --pending_refreshes_;
    refresh_cv_.notify_all();
  });
}

void LiveStatisticsServer::ReleaseRefreshClaim(
    const std::shared_ptr<Column>& column, bool succeeded) {
  column->refresh_in_flight.store(false);
  // Threshold triggers that arrived while the claim was held coalesced
  // into it, but its holder published only what it captured: re-check the
  // backlog. Not after a failure, so a failing column cannot spin; its
  // next ingest or the TTL retries.
  if (succeeded && options_.refresh_ingest_rows > 0 &&
      column->rows_since_refresh.load(std::memory_order_relaxed) >=
          options_.refresh_ingest_rows) {
    MaybeTriggerRefresh(column, &column->threshold_refreshes);
  }
}

Status LiveStatisticsServer::ObserveTrueSelectivity(
    const std::string& relation, const std::string& attribute,
    const RangeQuery& query, double true_selectivity) {
  const std::shared_ptr<Column> column = FindColumn(relation, attribute);
  if (column == nullptr) {
    return UnknownColumn(relation, attribute);
  }
  // The refresh claim keeps feedback and refreshes apart: a rebuild never
  // captures a ring that misses a published observation, and two
  // observations never clone the same generation.
  while (column->refresh_in_flight.exchange(true)) std::this_thread::yield();
  const Status status = PublishFeedback(column, {query, true_selectivity});
  ReleaseRefreshClaim(column, status.ok());
  return status;
}

Status LiveStatisticsServer::PublishFeedback(
    const std::shared_ptr<Column>& column,
    const FeedbackObservation& observation) {
  if (column->health.load(std::memory_order_relaxed) ==
      ServerHealth::kReadOnly) {
    return FailedPreconditionError(
        column->relation + "." + column->attribute +
        " is read-only after repeated WAL failures; feedback is rejected "
        "(ResetColumnHealth to re-enable it)");
  }
  const std::shared_ptr<const LiveGeneration> current =
      column->CurrentGeneration();
  // The merge path rebuilds nothing, so it could not replay the ring.
  if (column->accumulator != nullptr) {
    return FailedPreconditionError(
        "estimator \"" + current->estimator->name() + "\" for " +
        column->relation + "." + column->attribute +
        " merges ingest and does not accept query feedback");
  }
  // Observe on a private clone; readers keep answering from `current`. A
  // kind without feedback or a bad value fails here, before the log.
  SELEST_ASSIGN_OR_RETURN(const std::vector<uint8_t> bytes,
                          SnapshotEstimator(*current->estimator));
  SELEST_ASSIGN_OR_RETURN(std::unique_ptr<SelectivityEstimator> next,
                          LoadEstimatorSnapshot(bytes));
  SELEST_RETURN_IF_ERROR(next->ObserveTrueSelectivity(
      observation.query, observation.true_selectivity));
  {
    std::lock_guard<std::mutex> lock(column->ingest_mutex);
    if (column->wal != nullptr) {
      // Logged under Ingest's sync policy and health accounting.
      const Status logged = column->wal->Append(WalRecordType::kFeedback,
                                                EncodeFeedback(observation));
      NoteWalResult(column, logged.ok());
      SELEST_RETURN_IF_ERROR(logged);
    }
    PushFeedback(column->feedback, observation);
  }
  auto generation = std::make_shared<LiveGeneration>(*current);
  generation->estimator =
      std::shared_ptr<const SelectivityEstimator>(std::move(next));
  generation->number = current->number + 1;
  generation->built_at_ticks = Now();
  Publish(column, std::move(generation));
  return Status::Ok();
}

Status LiveStatisticsServer::Refresh(const std::string& relation,
                                     const std::string& attribute) {
  const std::shared_ptr<Column> column = FindColumn(relation, attribute);
  if (column == nullptr) {
    return UnknownColumn(relation, attribute);
  }
  // Wait out any in-flight refresh, then run ours inline: the caller asked
  // for a flip that reflects everything ingested before this call.
  while (column->refresh_in_flight.exchange(true)) std::this_thread::yield();
  const Status status = DoRefresh(column);
  column->refresh_in_flight.store(false);
  return status;
}

Status LiveStatisticsServer::DoRefresh(const std::shared_ptr<Column>& column) {
  const auto body = [&]() -> Status {
    SELEST_RETURN_IF_ERROR(FaultInjector::Check(kFaultPointServerRefresh));
    bool merged = false;
    uint64_t rows_at_build = 0;
    uint64_t rows_folded = 0;
    uint64_t covered_sequence = 0;
    std::unique_ptr<SelectivityEstimator> next;
    if (column->accumulator != nullptr) {
      // Merge path: serialize-clone the accumulator under the mutex, then
      // deserialize outside it. The clone answers bit-identically to the
      // accumulator at capture time (the snapshot round-trip contract).
      std::vector<uint8_t> bytes;
      {
        std::lock_guard<std::mutex> lock(column->ingest_mutex);
        SELEST_ASSIGN_OR_RETURN(bytes,
                                SnapshotEstimator(*column->accumulator));
        rows_at_build = column->total_rows;
        rows_folded =
            column->rows_since_refresh.load(std::memory_order_relaxed);
        if (column->wal != nullptr) {
          // Group commit: flush any buffered appends so every row folded
          // into the captured accumulator is durable at or below the
          // covered bound. A failed Sync drops its pending records from
          // the log, but the snapshot written below still preserves those
          // rows, so the lower covered bound stays safe.
          (void)column->wal->Sync();
          covered_sequence = column->wal->durable_sequence();
        }
      }
      SELEST_ASSIGN_OR_RETURN(next, LoadEstimatorSnapshot(bytes));
      merged = true;
    } else {
      // Rebuild path: full build from the current reservoir contents
      // (honors the est/build fault point), then the feedback ring
      // replayed in order.
      std::vector<double> rows;
      std::vector<FeedbackObservation> feedback;
      {
        std::lock_guard<std::mutex> lock(column->ingest_mutex);
        const std::span<const double> view = column->reservoir.values();
        rows.assign(view.begin(), view.end());
        feedback = column->feedback;
        rows_at_build = column->total_rows;
        rows_folded =
            column->rows_since_refresh.load(std::memory_order_relaxed);
        if (column->wal != nullptr) {
          (void)column->wal->Sync();  // group-commit boundary, as above
          covered_sequence = column->wal->durable_sequence();
        }
      }
      SELEST_ASSIGN_OR_RETURN(
          next, BuildEstimator(rows, column->domain, column->config));
      // Outside the mutex: a full reconstructed ring can take a few hundred
      // milliseconds, since each unsatisfied observation re-solves.
      SELEST_RETURN_IF_ERROR(ReplayFeedback(*next, feedback));
    }
    auto generation = std::make_shared<LiveGeneration>();
    generation->estimator =
        std::shared_ptr<const SelectivityEstimator>(std::move(next));
    generation->number = column->CurrentGeneration()->number + 1;
    generation->built_at_ticks = Now();
    generation->rows_at_build = rows_at_build;
    generation->merged = merged;
    generation->covered_sequence = covered_sequence;
    Publish(column, std::move(generation));
    column->refreshes.fetch_add(1, std::memory_order_relaxed);
    if (merged) {
      column->merge_refreshes.fetch_add(1, std::memory_order_relaxed);
    } else {
      column->rebuild_refreshes.fetch_add(1, std::memory_order_relaxed);
    }
    // Rows folded after the capture still count toward the next refresh.
    column->rows_since_refresh.fetch_sub(rows_folded,
                                         std::memory_order_relaxed);
    return Status::Ok();
  };
  // Transient refresh failures (an injected fault, a racing resource
  // error) retry with backoff instead of instantly parking the column on
  // a stale generation until the next trigger.
  size_t attempts = 0;
  const Status status = RetryWithBackoff(options_.retry, body, &attempts);
  if (attempts > 1) {
    column->refresh_retries.fetch_add(attempts - 1,
                                      std::memory_order_relaxed);
  }
  if (!status.ok()) {
    column->refresh_errors.fetch_add(1, std::memory_order_relaxed);
  }
  return status;
}

void LiveStatisticsServer::WaitForRefreshes() {
  std::unique_lock<std::mutex> lock(refresh_mutex_);
  refresh_cv_.wait(lock, [this]() { return pending_refreshes_ == 0; });
}

StatusOr<std::shared_ptr<const SelectivityEstimator>>
LiveStatisticsServer::CurrentEstimator(const std::string& relation,
                                       const std::string& attribute) const {
  SELEST_ASSIGN_OR_RETURN(const std::shared_ptr<const LiveGeneration> gen,
                          CurrentGeneration(relation, attribute));
  return gen->estimator;
}

StatusOr<std::shared_ptr<const LiveGeneration>>
LiveStatisticsServer::CurrentGeneration(const std::string& relation,
                                        const std::string& attribute) const {
  const std::shared_ptr<Column> column = FindColumn(relation, attribute);
  if (column == nullptr) {
    return UnknownColumn(relation, attribute);
  }
  return column->CurrentGeneration();
}

StatusOr<std::vector<std::shared_ptr<const LiveGeneration>>>
LiveStatisticsServer::GenerationHistory(const std::string& relation,
                                        const std::string& attribute) const {
  if (!options_.keep_generation_history) {
    return FailedPreconditionError(
        "generation history requires LiveServerOptions::"
        "keep_generation_history");
  }
  const std::shared_ptr<Column> column = FindColumn(relation, attribute);
  if (column == nullptr) {
    return UnknownColumn(relation, attribute);
  }
  std::lock_guard<std::mutex> lock(column->generation_mutex);
  return column->history;
}

StatusOr<LiveColumnStats> LiveStatisticsServer::ColumnStats(
    const std::string& relation, const std::string& attribute) const {
  const std::shared_ptr<Column> column = FindColumn(relation, attribute);
  if (column == nullptr) {
    return UnknownColumn(relation, attribute);
  }
  LiveColumnStats stats;
  stats.generation = column->CurrentGeneration()->number;
  stats.serves = column->TotalServes();
  stats.ingested_rows =
      column->ingested_rows.load(std::memory_order_relaxed);
  stats.rows_since_refresh =
      column->rows_since_refresh.load(std::memory_order_relaxed);
  stats.refreshes = column->refreshes.load(std::memory_order_relaxed);
  stats.refresh_errors =
      column->refresh_errors.load(std::memory_order_relaxed);
  stats.merge_refreshes =
      column->merge_refreshes.load(std::memory_order_relaxed);
  stats.rebuild_refreshes =
      column->rebuild_refreshes.load(std::memory_order_relaxed);
  stats.ttl_refreshes =
      column->ttl_refreshes.load(std::memory_order_relaxed);
  stats.threshold_refreshes =
      column->threshold_refreshes.load(std::memory_order_relaxed);
  stats.writebacks = column->writebacks.load(std::memory_order_relaxed);
  stats.writeback_errors =
      column->writeback_errors.load(std::memory_order_relaxed);
  stats.health = column->health.load(std::memory_order_relaxed);
  stats.wal_appends = column->wal_appends.load(std::memory_order_relaxed);
  stats.wal_append_errors =
      column->wal_append_errors.load(std::memory_order_relaxed);
  stats.consecutive_wal_failures =
      column->consecutive_wal_failures.load(std::memory_order_relaxed);
  stats.refresh_retries =
      column->refresh_retries.load(std::memory_order_relaxed);
  stats.writeback_retries =
      column->writeback_retries.load(std::memory_order_relaxed);
  stats.recovered = column->recovered;
  stats.recovery_used_snapshot = column->recovery_used_snapshot;
  stats.recovered_quarantined_segments =
      column->recovered_quarantined_segments;
  stats.recovered_truncated_bytes = column->recovered_truncated_bytes;
  if (column->wal != nullptr) {
    std::lock_guard<std::mutex> ingest_lock(column->ingest_mutex);
    stats.wal_last_sequence = column->wal->durable_sequence();
  }
  return stats;
}

Status LiveStatisticsServer::ResetColumnHealth(const std::string& relation,
                                               const std::string& attribute) {
  const std::shared_ptr<Column> column = FindColumn(relation, attribute);
  if (column == nullptr) {
    return UnknownColumn(relation, attribute);
  }
  column->consecutive_wal_failures.store(0, std::memory_order_relaxed);
  column->health.store(ServerHealth::kHealthy, std::memory_order_relaxed);
  return Status::Ok();
}

ServerHealth LiveStatisticsServer::Health() const {
  const EpochGuard guard;
  ServerHealth worst = ServerHealth::kHealthy;
  for (const std::shared_ptr<Column>& column :
       table_.load(std::memory_order_seq_cst)->columns()) {
    const ServerHealth health =
        column->health.load(std::memory_order_relaxed);
    if (static_cast<int>(health) > static_cast<int>(worst)) worst = health;
  }
  return worst;
}

bool LiveStatisticsServer::HasColumn(const std::string& relation,
                                     const std::string& attribute) const {
  return FindColumn(relation, attribute) != nullptr;
}

size_t LiveStatisticsServer::num_columns() const {
  const EpochGuard guard;
  return table_.load(std::memory_order_seq_cst)->columns().size();
}

}  // namespace selest
