// The live statistics server: the one serving front for column statistics.
//
// An optimizer registers a column's sample, reads estimates, and feeds
// back the true selectivities of executed queries, while rows keep
// arriving. Estimates must stay fresh without readers ever blocking on a
// rebuild. Per column it maintains
//
//   * a served *generation*: an immutable estimator published through an
//     atomic raw pointer. A read takes no lock: inside an epoch guard
//     (util/epoch.h) it finds the column in an immutable registry table by
//     string_view, loads the pointer once and answers from that
//     generation, never torn across a refresh. It writes no cache line
//     another thread uses, unless more than 16 threads hold reader slots
//     (the later ones share one serve counter). A flip retires the old
//     generation, which is freed once every reader that could have loaded
//     it has left (RCU-style);
//   * an ingest-side accumulator, private to the server and guarded by an
//     ingest mutex: a mergeable clone of the estimator that new rows fold
//     into without a full rebuild (MergeFrom/FoldRows, est/), and a
//     fixed-capacity decaying reservoir (sample/sampler.h) feeding full
//     rebuilds of non-mergeable estimators. Neither grows with the number
//     of rows ingested;
//   * a bounded feedback ring: the newest kFeedbackRingCapacity
//     (range, true selectivity) observations. ObserveTrueSelectivity
//     publishes a clone of the served generation that has observed one
//     more; every rebuild (refresh or recovery) replays the ring in order,
//     so the learned state survives both;
//   * a staleness policy: refresh after `refresh_ingest_rows` folded rows
//     and/or when the serving generation is older than `ttl_ticks` by the
//     injected clock, executed inline or in the background on the shared
//     exec thread pool. A refresh that fails — an injected est/build or
//     server/refresh fault, a clone error — retries with capped backoff
//     (util/retry.h), then leaves the old generation serving and bumps an
//     error counter (graceful degradation, DESIGN.md §8);
//   * optionally a per-column write-ahead log (durability/wal.h): Ingest
//     and ObserveTrueSelectivity append and fsync their record before
//     applying it, so a crash loses nothing that was acknowledged.
//     RecoverColumn rebuilds a column from its newest proven snapshot plus
//     the WAL tail. Repeated WAL failures walk the column's health from
//     healthy → degraded → read-only (ServerHealth).
//
// Generation lifecycle: DESIGN.md §10. Durability and the fsync-boundary
// contract: DESIGN.md §11. The feedback write-back: DESIGN.md §14.3.
#ifndef SELEST_CATALOG_LIVE_SERVER_H_
#define SELEST_CATALOG_LIVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/catalog/snapshot_store.h"
#include "src/data/column_source.h"
#include "src/data/domain.h"
#include "src/durability/recovery_manager.h"
#include "src/durability/wal.h"
#include "src/est/estimator_factory.h"
#include "src/exec/thread_pool.h"
#include "src/query/range_query.h"
#include "src/sample/sampler.h"
#include "src/util/retry.h"
#include "src/util/status.h"

namespace selest {

// Per-column (and server-wide) health. Transitions on the WAL write path:
// an append/sync failure degrades the column; `read_only_after_failures`
// consecutive failures latch it read-only (ingest rejected, serving
// continues from the last generation). A successful durable append heals
// kDegraded back to kHealthy; kReadOnly is sticky until RecoverColumn or
// ResetColumnHealth — the operator must decide the log is trustworthy
// again, the server must not flap on its own.
enum class ServerHealth { kHealthy = 0, kDegraded = 1, kReadOnly = 2 };
const char* ServerHealthName(ServerHealth health);

struct LiveServerOptions {
  // Capacity and recency bias of the per-column ingest reservoir (see
  // DecayingReservoir). Non-mergeable estimators rebuild from this
  // reservoir on refresh; keep it at least as large as the registration
  // sample when bit-stable refreshes of a quiet column matter.
  size_t reservoir_capacity = 2000;
  double reservoir_decay = 0.0;

  // Staleness policy. A refresh is triggered when `refresh_ingest_rows`
  // rows have been folded since the served build (0 disables), or when the
  // serving generation is older than `ttl_ticks` by `clock` (0 disables;
  // checked on ingest and serve). At most one refresh per column runs at a
  // time; triggers during a running refresh coalesce into it, and a
  // background refresh that succeeds re-checks the volume threshold, so
  // rows ingested while it ran are published without further ingest.
  size_t refresh_ingest_rows = 0;
  uint64_t ttl_ticks = 0;
  // Monotonic tick source; defaults to steady_clock nanoseconds. Tests
  // inject a fake clock to drive TTL deterministically.
  std::function<uint64_t()> clock;

  // Background refreshes run on `pool` (the shared default pool when
  // nullptr) so ingest latency stays flat; inline refreshes complete
  // before Ingest returns, which is what the deterministic tests use.
  bool background_refresh = true;
  ThreadPool* pool = nullptr;

  // When set, every published generation is written back as an estimator
  // snapshot (PR 5 envelope) under this directory, keyed by
  // (relation, attribute, FingerprintConfig).
  std::string snapshot_directory;

  // Retain every published generation for inspection (the concurrency
  // tests replay served answers against the exact generation that produced
  // them). Unbounded; leave off outside tests.
  bool keep_generation_history = false;

  // Seeds the per-column reservoirs.
  uint64_t seed = 1;

  // When set, every column keeps a write-ahead log under
  // `wal_directory/<label>.wal/` and Ingest appends (and by default
  // fsyncs) the batch before folding it — nothing a successful Ingest
  // acknowledged is lost by a crash. Empty disables durability entirely
  // (the pre-WAL in-memory behavior).
  std::string wal_directory;
  WalOptions wal;

  // Retry discipline for the transient-failure paths: refresh execution,
  // snapshot write-back, and recovery's snapshot load. Only kInternal /
  // kResourceExhausted retry; corruption and programmer errors fail fast
  // (util/retry.h).
  RetryOptions retry;

  // Consecutive WAL failures before the column latches read-only.
  size_t read_only_after_failures = 3;
};

// One published epoch of a column. Immutable after publication.
struct LiveGeneration {
  std::shared_ptr<const SelectivityEstimator> estimator;
  // 1 for the registration build, then +1 per successful refresh.
  uint64_t number = 0;
  uint64_t built_at_ticks = 0;
  // Rows folded into this generation (registration rows + ingested rows).
  uint64_t rows_at_build = 0;
  // True when the generation was produced by the merge/fold path (no
  // rebuild); false for registration builds and reservoir rebuilds.
  bool merged = false;
  // Newest WAL sequence whose rows the generation folds in; its snapshot
  // mark carries it. A feedback publish keeps its base's value.
  uint64_t covered_sequence = 0;
};

// A serve-path answer bound to the generation that produced it.
struct ServedEstimate {
  double value = 0.0;
  uint64_t generation = 0;
};

// Per-column counters. Read with relaxed atomics: exact once concurrent
// traffic has quiesced.
struct LiveColumnStats {
  uint64_t generation = 0;        // currently served generation number
  uint64_t serves = 0;            // Estimate() answers, summed over readers
  uint64_t ingested_rows = 0;     // rows accepted by Ingest since register
  uint64_t rows_since_refresh = 0;
  uint64_t refreshes = 0;         // successful generation flips
  uint64_t refresh_errors = 0;    // failed refreshes (old generation kept)
  uint64_t merge_refreshes = 0;   // flips produced by the merge/fold path
  uint64_t rebuild_refreshes = 0; // flips rebuilt from the reservoir
  uint64_t ttl_refreshes = 0;         // refresh triggers by TTL
  uint64_t threshold_refreshes = 0;   // refresh triggers by ingest volume
  uint64_t writebacks = 0;        // generation snapshots persisted
  uint64_t writeback_errors = 0;  // snapshot writes that failed

  // Durability & health (all zero / kHealthy when the WAL is disabled).
  ServerHealth health = ServerHealth::kHealthy;
  uint64_t wal_appends = 0;        // ingest batches + feedback records logged
  uint64_t wal_append_errors = 0;  // records rejected at the WAL
  uint64_t consecutive_wal_failures = 0;
  uint64_t wal_last_sequence = 0;  // newest durable WAL sequence
  uint64_t refresh_retries = 0;    // extra refresh attempts beyond the 1st
  uint64_t writeback_retries = 0;  // extra write-back attempts
  bool recovered = false;              // column came from RecoverColumn
  bool recovery_used_snapshot = false; // fast path (snapshot + tail replay)
  uint64_t recovered_quarantined_segments = 0;
  uint64_t recovered_truncated_bytes = 0;
};

class LiveStatisticsServer {
 public:
  explicit LiveStatisticsServer(LiveServerOptions options = {});

  // Drains in-flight background refreshes before tearing down.
  ~LiveStatisticsServer();

  LiveStatisticsServer(const LiveStatisticsServer&) = delete;
  LiveStatisticsServer& operator=(const LiveStatisticsServer&) = delete;

  // Registers (relation, attribute) and publishes generation 1, built from
  // `initial_rows` exactly as BuildEstimator would (so a quiet column
  // serves bit-identically to a direct build, and a sweep scored from it
  // equals RunConfigsParallel). Every registered column stays resident.
  // Replaces any previous registration of the same column.
  Status RegisterColumn(const std::string& relation,
                        const std::string& attribute, const Domain& domain,
                        const EstimatorConfig& config,
                        std::span<const double> initial_rows);

  // Rebuilds a column from its durable state (snapshot + WAL) after a
  // crash: opens the column's log (quarantining unreadable segments,
  // truncating a torn tail), replays it through the RecoveryManager, and
  // publishes a recovered generation. For mergeable estimators the
  // recovered accumulator — and hence the published generation — is
  // bit-identical to the pre-crash state covering every durably
  // acknowledged row. Requires `wal_directory`; kNotFound when the log
  // holds no registration record.
  Status RecoverColumn(const std::string& relation,
                       const std::string& attribute, const Domain& domain,
                       const EstimatorConfig& config);

  // Folds new rows into the column's ingest-side state: the mergeable
  // accumulator (exact or bounded-drift, per estimator type) and the
  // reservoir. Values are clamped to the column's domain (±inf to its
  // edges); a batch holding a NaN is rejected whole with kInvalidArgument
  // before it is logged; a failed WAL append folds nothing, so the caller
  // may retry the batch. Once the batch is logged and folded, Ingest
  // returns OK: a refresh it triggers that fails (inline or in the
  // background) is counted in refresh_errors instead. Returns before any
  // triggered background refresh completes; the served generation is
  // unchanged until the flip.
  Status Ingest(const std::string& relation, const std::string& attribute,
                std::span<const double> rows);

  // Ingest from a dataset file (text format, data/io.h); the number of
  // rows folded on success. Subject to the data/io/read-text fault point:
  // a failed load folds nothing and leaves serving untouched.
  StatusOr<size_t> IngestFromFile(const std::string& relation,
                                  const std::string& attribute,
                                  const std::string& path);

  // Ingest from a ColumnSource, one chunk per Ingest batch: the out-of-core
  // path unifying streamed columns (mmap files, synthetic generators) with
  // the same WAL/fold/refresh discipline as span ingest — a column too big
  // for memory streams through at chunk granularity, and each chunk is
  // durably acknowledged before the next is read. Returns rows folded. On
  // error, chunks already ingested stay ingested (same contract as calling
  // Ingest per batch).
  StatusOr<uint64_t> IngestFromSource(const std::string& relation,
                                      const std::string& attribute,
                                      ColumnSource& source);

  // Serve-path estimate from the current generation. Never waits for a
  // refresh in flight: the generation pointer is loaded atomically and the
  // answer is computed entirely from that generation. The one exception:
  // with `background_refresh` off and a TTL set, the read that finds the
  // TTL expired runs that refresh inline, after its answer is computed.
  StatusOr<double> Estimate(const std::string& relation,
                            const std::string& attribute,
                            const RangeQuery& query);

  // Estimate plus the generation number that answered — the concurrency
  // suite asserts every served value is bit-identical to its generation's
  // estimator (never a torn mix of two generations).
  StatusOr<ServedEstimate> EstimateDetailed(const std::string& relation,
                                            const std::string& attribute,
                                            const RangeQuery& query);

  // Feedback write-back (DESIGN.md §14.3): folds the true selectivity of
  // an executed query into the column's served estimator. Holds the
  // column's refresh claim; observes on a snapshot clone of the current
  // generation, logs a kFeedback record, pushes the observation onto the
  // feedback ring and publishes the clone as the next generation.
  // kNotFound for an unknown column; kFailedPrecondition for a read-only
  // column or an estimator that does not take feedback (every mergeable
  // kind); the estimator's kInvalidArgument for a bad value. A rejected
  // call logs and publishes nothing. Releasing the claim re-checks the
  // ingest backlog as a background refresh does, so a threshold crossed
  // meanwhile starts its refresh here (inline when background_refresh is
  // off).
  Status ObserveTrueSelectivity(const std::string& relation,
                                const std::string& attribute,
                                const RangeQuery& query,
                                double true_selectivity);

  // Forces a synchronous refresh (merge/fold clone for mergeable
  // estimators, reservoir rebuild otherwise) and publishes the new
  // generation. On failure the old generation keeps serving and the error
  // is returned.
  Status Refresh(const std::string& relation, const std::string& attribute);

  // Blocks until every background refresh scheduled so far has finished.
  void WaitForRefreshes();

  // The estimator of the current generation (shared ownership: stays valid
  // across later flips).
  StatusOr<std::shared_ptr<const SelectivityEstimator>> CurrentEstimator(
      const std::string& relation, const std::string& attribute) const;

  // The current generation record.
  StatusOr<std::shared_ptr<const LiveGeneration>> CurrentGeneration(
      const std::string& relation, const std::string& attribute) const;

  // Every generation published so far, oldest first. Requires
  // options.keep_generation_history.
  StatusOr<std::vector<std::shared_ptr<const LiveGeneration>>>
  GenerationHistory(const std::string& relation,
                    const std::string& attribute) const;

  StatusOr<LiveColumnStats> ColumnStats(const std::string& relation,
                                        const std::string& attribute) const;

  bool HasColumn(const std::string& relation,
                 const std::string& attribute) const;
  size_t num_columns() const;
  // The durable write-back tier, or nullptr when disabled.
  const SnapshotStore* store() const {
    return store_.has_value() ? &*store_ : nullptr;
  }

  // Clears a column's read-only latch and failure streak back to healthy.
  // The operator's "the disk is fixed" lever; it does not touch the log.
  Status ResetColumnHealth(const std::string& relation,
                           const std::string& attribute);

  // Worst health across all registered columns (kHealthy when empty).
  ServerHealth Health() const;

  // Where a column's WAL segments live under `wal_root` — shared with the
  // chaos harness so it can reopen / damage the log out-of-process-style.
  static std::string WalDirectoryFor(const std::string& wal_root,
                                     const CatalogKey& key);

 private:
  struct Column;
  class Table;

  // Write paths and inspection: the column, held by a copy of its owner.
  std::shared_ptr<Column> FindColumn(const std::string& relation,
                                     const std::string& attribute) const;
  // Publishes a registry table holding `column`, replacing any column of
  // the same name, and retires the old table.
  void InstallColumn(std::shared_ptr<Column> column);
  uint64_t Now() const;
  // Starts a refresh unless one is already running (coalescing).
  // `trigger_counter` (may be null) is bumped only when this call actually
  // claims the refresh, so policy counters count refreshes started, not
  // every serve that noticed staleness. Inline or in the background, a
  // failed refresh is counted in refresh_errors and the old generation
  // keeps serving.
  void MaybeTriggerRefresh(const std::shared_ptr<Column>& column,
                           std::atomic<uint64_t>* trigger_counter);
  // The refresh body: produce the next generation (with retry), flip,
  // write back.
  Status DoRefresh(const std::shared_ptr<Column>& column);
  // Releases the refresh claim. After a successful refresh or feedback
  // publish, re-checks the ingest backlog, so a threshold crossed while
  // the claim was held is published without further ingest.
  void ReleaseRefreshClaim(const std::shared_ptr<Column>& column,
                           bool succeeded);
  // The feedback body, run under the refresh claim.
  Status PublishFeedback(const std::shared_ptr<Column>& column,
                         const FeedbackObservation& observation);
  // Atomically flips the column to `generation` and persists it (snapshot
  // write-back with retry, then a WAL snapshot mark covering
  // `generation->covered_sequence`).
  void Publish(const std::shared_ptr<Column>& column,
               std::shared_ptr<const LiveGeneration> generation);
  // True when the served generation is older than the TTL. Writes only
  // to re-anchor after the clock stepped backwards.
  bool TtlExpired(Column& column) const;
  // Health transitions for a WAL write outcome.
  void NoteWalResult(const std::shared_ptr<Column>& column, bool ok);

  LiveServerOptions options_;
  std::optional<SnapshotStore> store_;

  // The registry readers search: an immutable table, replaced whole by
  // InstallColumn under the writer-only `table_mutex_` and retired through
  // the epoch domain. Never null.
  std::mutex table_mutex_;
  std::atomic<const Table*> table_;

  // Background refresh accounting for WaitForRefreshes / the destructor.
  mutable std::mutex refresh_mutex_;
  std::condition_variable refresh_cv_;
  size_t pending_refreshes_ = 0;
};

}  // namespace selest

#endif  // SELEST_CATALOG_LIVE_SERVER_H_
