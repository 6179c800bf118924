#include "perfbench/src/live.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <map>
#include <optional>
#include <thread>
#include <utility>

#include "src/catalog/snapshot_store.h"
#include "src/durability/recovery_manager.h"
#include "src/durability/wal.h"
#include "src/est/estimator_snapshot.h"
#include "src/online/online_estimator.h"
#include "src/sample/sampler.h"
#include "src/util/random.h"

namespace perfbench {

namespace {

// Probe queries per band and column for the quiesce and restart checks:
// the whole band, so served_mre averages over 512 queries per column.
constexpr size_t kProbesPerBand = kQueriesPerBand;
// Per-column cap on replayed batches (the WAL replay fdatasyncs each one).
constexpr uint64_t kReplayBatchesPerColumn = 2000;
constexpr uint64_t kReplayWalAppends = 2000;
// Batches a closed-loop loader sends back to back before it sleeps.
constexpr uint64_t kBurstBatches = 200;

bool BitEqual(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

double MeanOf(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double Ms(uint64_t ns) { return static_cast<double>(ns) * 1e-6; }

// Pins a phase thread to its core for the window holding `now` and
// returns when that window ends: slot s runs on core (s + w) % (cores - 1)
// in window w, so the threads visit every core but the refresh worker's
// and no two share one.
uint64_t FollowCores(size_t slot, uint64_t phase_start, uint64_t now) {
  static const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const uint64_t w = now > phase_start ? (now - phase_start) / kWindowNs : 0;
  if (cores > 1) PinToCore(static_cast<unsigned>((slot + w) % (cores - 1)));
  return phase_start + (w + 1) * kWindowNs;
}

}  // namespace

void WindowedHistogram::Add(uint64_t at_ns, uint64_t value) {
  const size_t w = static_cast<size_t>(
      (at_ns > start_ns ? at_ns - start_ns : 0) / kWindowNs);
  if (w >= windows.size()) windows.resize(w + 1);
  windows[w].Add(value);
  all.Add(value);
}

void WindowedHistogram::Merge(const WindowedHistogram& other) {
  if (other.windows.size() > windows.size()) windows.resize(other.windows.size());
  for (size_t w = 0; w < other.windows.size(); ++w) windows[w].Merge(other.windows[w]);
  all.Merge(other.all);
}

double WindowedHistogram::Percentile(double p) const {
  const double min_count = std::max(100.0, 10.0 / (1.0 - p));
  double best = -1.0;
  for (const Histogram& h : windows) {
    if (static_cast<double>(h.count()) < min_count) continue;
    const double v = h.Percentile(p);
    if (best < 0.0 || v < best) best = v;
  }
  return best < 0.0 ? all.Percentile(p) : best;
}

double WindowedHistogram::BestRate(double seconds) const {
  const double window_s = static_cast<double>(kWindowNs) * 1e-9;
  const size_t full = std::min(
      windows.size(), static_cast<size_t>(std::floor(seconds / window_s)));
  uint64_t best = 0;
  for (size_t w = 0; w < full; ++w) best = std::max(best, windows[w].count());
  if (best > 0) return static_cast<double>(best) / window_s;
  return seconds > 0.0 ? static_cast<double>(all.count()) / seconds : 0.0;
}

LiveHarness::LiveHarness(const Inputs& inputs, std::vector<ColumnSpec> columns,
                         LiveConfig config, Report& report)
    : inputs_(inputs),
      columns_(std::move(columns)),
      config_(std::move(config)),
      report_(report) {
  double total = 0.0;
  for (const ColumnSpec& c : columns_) total += c.popularity;
  double running = 0.0;
  for (const ColumnSpec& c : columns_) {
    running += c.popularity / total;
    popularity_cdf_.push_back(running);
  }
  popularity_cdf_.back() = 1.0;
}

LiveHarness::~LiveHarness() {
  server_.reset();
  refresh_pool_.reset();
}

const FileInputs& LiveHarness::FileOf(size_t column) const {
  return inputs_.files[columns_[column].file];
}

const std::string& LiveHarness::RelationOf(size_t column) const {
  return FileOf(column).relation;
}

selest::CatalogKey LiveHarness::KeyOf(size_t column) const {
  return selest::CatalogKey{RelationOf(column), columns_[column].attribute,
                            selest::FingerprintConfig(
                                columns_[column].config.config)};
}

selest::LiveServerOptions LiveHarness::Options(
    const std::string& durable_root) const {
  selest::LiveServerOptions options;
  options.refresh_ingest_rows = config_.refresh_rows;
  options.background_refresh = true;
  options.pool = refresh_pool_.get();
  options.seed = MixSeed(inputs_.seed, 9, 0);
  if (config_.durable) {
    options.wal_directory = durable_root + "/wal";
    options.snapshot_directory = durable_root + "/snapshots";
  }
  return options;
}

void LiveHarness::CopyDurableState(const std::string& from,
                                   const std::string& to) {
  std::error_code ec;
  std::filesystem::remove_all(to, ec);
  std::filesystem::create_directories(to, ec);
  for (const char* dir : {"/wal", "/snapshots"}) {
    report_.Attempt();
    std::filesystem::copy(from + dir, to + dir,
                          std::filesystem::copy_options::recursive, ec);
    if (ec) report_.Error("copy durable state", ec.message());
  }
}

void LiveHarness::FillBatch(size_t column, uint64_t index,
                            std::vector<double>& out) const {
  const std::vector<double>& pool = FileOf(column).ingest_pool;
  size_t pos = static_cast<size_t>(
      (column * 7919 + index * config_.batch_rows) % pool.size());
  for (double& v : out) {
    v = pool[pos];
    if (++pos == pool.size()) pos = 0;
  }
}

uint64_t LiveHarness::rows_acked() const {
  uint64_t batches = 0;
  for (uint64_t a : acked_) batches += a;
  return batches * config_.batch_rows;
}

void LiveHarness::Start() {
  refresh_pool_ = std::make_unique<selest::ThreadPool>(1);
  // The refresh worker lives on the last core (kept awake during phases).
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  if (cores > 1) {
    std::promise<void> pinned;
    refresh_pool_->Schedule([&pinned, cores]() {
      PinToCore(cores - 1);
      pinned.set_value();
    });
    pinned.get_future().wait();
  }
  server_ = std::make_unique<selest::LiveStatisticsServer>(
      Options(config_.workdir));
  for (size_t c = 0; c < columns_.size(); ++c) {
    const FileInputs& file = FileOf(c);
    report_.Attempt();
    Span span(SpanName::kLiveRegister);
    const selest::Status st = server_->RegisterColumn(
        file.relation, columns_[c].attribute, file.data->domain(),
        columns_[c].config.config, file.sample);
    if (!st.ok()) report_.Error("RegisterColumn", st.ToString());
  }
  acked_.assign(columns_.size(), 0);
  threshold_seen_.assign(columns_.size(), 0);
  traced_begin_.assign(columns_.size(), 0);
  traced_end_.assign(columns_.size(), 0);
  traced_start_estimator_.assign(columns_.size(), nullptr);

  // Stagger: column c starts a different fraction of a threshold ahead
  // (one Ingest of its first batches), so the loaders' rotation does not
  // make every column cross its refresh threshold in the same round.
  const size_t n = columns_.size();
  const uint64_t per_threshold = config_.refresh_rows / config_.batch_rows;
  for (size_t c = 0; c < n && per_threshold > 1; ++c) {
    const uint64_t lead = (c * 7 % n) * per_threshold / n;
    if (lead == 0) continue;
    std::vector<double> rows(lead * config_.batch_rows);
    std::vector<double> batch(config_.batch_rows);
    for (uint64_t k = 0; k < lead; ++k) {
      FillBatch(c, k, batch);
      std::copy(batch.begin(), batch.end(),
                rows.begin() + static_cast<ptrdiff_t>(k * config_.batch_rows));
    }
    report_.Attempt();
    const selest::Status st =
        server_->Ingest(RelationOf(c), columns_[c].attribute, rows);
    if (!st.ok()) {
      report_.Error("Ingest", st.ToString());
      continue;
    }
    acked_[c] = lead;
  }
}

std::vector<uint32_t> LiveHarness::ReaderStream(size_t reader,
                                                size_t phase) const {
  // A request is (column by popularity, band 50/50, query index), packed
  // as column << 16 | wide << 15 | query.
  selest::Rng rng(MixSeed(inputs_.seed, 10 + phase, reader));
  std::vector<uint32_t> stream(1u << 16);
  for (uint32_t& r : stream) {
    const double u = rng.NextDouble();
    const size_t c = static_cast<size_t>(
        std::upper_bound(popularity_cdf_.begin(), popularity_cdf_.end(), u) -
        popularity_cdf_.begin());
    const uint32_t column =
        static_cast<uint32_t>(std::min(c, columns_.size() - 1));
    const uint32_t wide = rng.NextUint64(2) == 1 ? 1 : 0;
    const uint32_t query = static_cast<uint32_t>(rng.NextUint64(kQueriesPerBand));
    r = column << 16 | wide << 15 | query;
  }
  return stream;
}

void LiveHarness::ReaderLoop(const std::vector<uint32_t>& stream, size_t slot,
                             bool traced, const std::atomic<bool>& stop,
                             PhaseStats& out) {
  selest::LiveStatisticsServer& server = *server_;
  const size_t mask = stream.size() - 1;
  std::vector<std::shared_ptr<const selest::LiveGeneration>> gens(
      columns_.size());
  out.front_ns.reserve(traced ? (1u << 20) : 0);
  const uint64_t start = out.read_ns.start_ns;
  uint64_t next_move = FollowCores(slot, start, NowNs());
  for (size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
    const uint32_t r = stream[i & mask];
    const size_t c = r >> 16;
    const FileInputs& file = FileOf(c);
    const selest::RangeQuery& q =
        (r & 0x8000) != 0 ? file.wide[r & 0x7fff] : file.narrow[r & 0x7fff];
    const std::string& attribute = columns_[c].attribute;
    if (!traced) {
      const uint64_t t0 = NowNs();
      const auto served = server.EstimateDetailed(file.relation, attribute, q);
      const uint64_t t1 = NowNs();
      out.read_ns.Add(t0, t1 - t0);
      ++out.reads;
      if (!served.ok()) report_.Error("EstimateDetailed", served.status().ToString());
      if (t1 >= next_move) next_move = FollowCores(slot, start, t1);
      continue;
    }
    Span root(SpanName::kServeRead, NextRequestId());
    uint64_t t0 = 0;
    uint64_t t1 = 0;
    const uint64_t s0 = NowNs();
    const auto served = [&]() {
      Span span(SpanName::kLiveEstimate);
      t0 = NowNs();
      auto v = server.EstimateDetailed(file.relation, attribute, q);
      t1 = NowNs();
      return v;
    }();
    const uint64_t s1 = NowNs();
    // The read as traced, span bookkeeping included, for trace.overhead_pct.
    out.read_ns.Add(s0, s1 - s0);
    ++out.reads;
    if (s1 >= next_move) next_move = FollowCores(slot, start, s1);
    if (!served.ok()) {
      report_.Error("EstimateDetailed", served.status().ToString());
      continue;
    }
    // The serve front: the same query on the same generation, called
    // directly, back to back.
    std::shared_ptr<const selest::LiveGeneration>& gen = gens[c];
    if (gen == nullptr || gen->number != served->generation) {
      Span span(SpanName::kLiveCurrentGen);
      auto current = server.CurrentGeneration(file.relation, attribute);
      if (current.ok()) gen = current.value();
    }
    if (gen == nullptr || gen->number != served->generation) continue;
    uint64_t t2 = 0;
    uint64_t t3 = 0;
    double direct = 0.0;
    {
      Span span(SpanName::kEstDirect);
      t2 = NowNs();
      direct = gen->estimator->EstimateSelectivity(q);
      t3 = NowNs();
    }
    ++out.direct_compared;
    if (!BitEqual(direct, served->value)) ++out.direct_mismatches;
    if (out.front_ns.size() < out.front_ns.capacity()) {
      out.front_ns.push_back(static_cast<double>(t1 - t0) -
                             static_cast<double>(t3 - t2));
    }
  }
  report_.Attempt(out.reads);
}

void LiveHarness::AfterAck(size_t column, uint64_t ack_ns,
                           std::vector<Probe>& pending) {
  report_.Attempt();
  const auto stats =
      server_->ColumnStats(RelationOf(column), columns_[column].attribute);
  if (!stats.ok()) {
    report_.Error("ColumnStats", stats.status().ToString());
    return;
  }
  // This loader is the column's only writer, so a bump of the threshold
  // trigger count during its Ingest means this batch claimed a refresh.
  if (stats->threshold_refreshes > threshold_seen_[column]) {
    threshold_seen_[column] = stats->threshold_refreshes;
    pending.push_back(Probe{column,
                            FileOf(column).sample.size() +
                                acked_[column] * config_.batch_rows,
                            ack_ns});
  }
}

void LiveHarness::PollProbes(std::vector<Probe>& pending, PhaseStats& out) {
  for (size_t i = 0; i < pending.size();) {
    const Probe& p = pending[i];
    const auto gen = [&]() {
      Span span(SpanName::kLiveCurrentGen);
      return server_->CurrentGeneration(RelationOf(p.column),
                                        columns_[p.column].attribute);
    }();
    if (gen.ok() && gen.value()->rows_at_build >= p.target_rows) {
      // The covering generation was built after the ack (its capture
      // followed the trigger); built_at_ticks is on the server's default
      // steady clock, so the lag needs no polling slack.
      const uint64_t built = gen.value()->built_at_ticks;
      out.lag_ms.push_back(Ms(built > p.ack_ns ? built - p.ack_ns : 0));
      pending[i] = pending.back();
      pending.pop_back();
    } else {
      ++i;
    }
  }
}

void LiveHarness::DrainProbes(std::vector<Probe>& pending, PhaseStats& out) {
  const uint64_t deadline = NowNs() + 10'000'000'000ull;
  while (!pending.empty() && NowNs() < deadline) {
    PollProbes(pending, out);
    if (!pending.empty()) std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  out.lag_unresolved += pending.size();
}

void LiveHarness::LoaderLoop(size_t loader, size_t slot, uint64_t start_ns,
                             uint64_t end_ns, bool traced, PhaseStats& out) {
  std::vector<size_t> owned;
  for (size_t c = loader; c < columns_.size(); c += config_.loaders) {
    owned.push_back(c);
  }
  if (owned.empty()) return;
  const double interval_ns = static_cast<double>(config_.batch_rows) *
                             static_cast<double>(config_.loaders) /
                             config_.rows_per_s * 1e9;
  // Batches scheduled before time t.
  const auto due_before = [&](uint64_t t) -> uint64_t {
    return t <= start_ns ? 0
                         : static_cast<uint64_t>(std::ceil(
                               static_cast<double>(t - start_ns) / interval_ns));
  };
  std::vector<double> batch(config_.batch_rows);
  std::vector<Probe> pending;
  uint64_t next_move = FollowCores(slot, start_ns, NowNs());
  uint64_t k = 0;
  for (;; ++k) {
    const uint64_t due =
        start_ns + static_cast<uint64_t>(static_cast<double>(k) * interval_ns);
    // The phase ends by the clock: a loader behind schedule sends nothing
    // more, so its shortfall shows in the rows acknowledged by the end.
    if (due >= end_ns || NowNs() >= end_ns) break;
    if (config_.open_loop) {
      // Spin: an idle core can take milliseconds to be granted back on a
      // shared host, which would read as loader lateness.
      for (uint64_t now = NowNs(); now < due; now = NowNs()) {
        if (now >= next_move) next_move = FollowCores(slot, start_ns, now);
      }
    } else if (k % kBurstBatches == 0 && NowNs() < due) {
      // Closed loop in bursts: kBurstBatches back to back, then sleep until
      // the schedule catches up. Syncs spaced out by sleeps each find the
      // device path idle and cost several times a back-to-back sync.
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - NowNs()));
    }
    if (const uint64_t now = NowNs(); now >= next_move) {
      next_move = FollowCores(slot, start_ns, now);
    }
    // Rotate over the loader's columns: each gets a batch in turn.
    const size_t c = owned[k % owned.size()];
    FillBatch(c, acked_[c], batch);
    Span root(SpanName::kIngestBatch, traced ? NextRequestId() : 0);
    report_.Attempt();
    const uint64_t sent = NowNs();
    out.lateness_ns.Add(sent > due ? sent - due : 0);
    const selest::Status st = [&]() {
      Span span(SpanName::kLiveIngest);
      return server_->Ingest(RelationOf(c), columns_[c].attribute, batch);
    }();
    const uint64_t acked = NowNs();
    const uint64_t origin = config_.open_loop ? due : sent;
    out.ack_ns.Add(acked - origin);
    out.busy_ns += acked - sent;
    if (!st.ok()) {
      report_.Error("Ingest", st.ToString());
      continue;
    }
    ++acked_[c];
    ++out.batches;
    if (acked <= end_ns) out.rows += batch.size();
    AfterAck(c, acked, pending);
    PollProbes(pending, out);
  }
  out.due_batches = due_before(end_ns);
  out.unsent_batches = out.due_batches - std::min(out.due_batches, k);
  DrainProbes(pending, out);
}

PhaseStats LiveHarness::RunPhase(double seconds, size_t readers, bool traced) {
  const size_t phase = phases_run_++;
  PhaseStats stats;
  std::vector<std::vector<uint32_t>> streams;
  for (size_t r = 0; r < readers; ++r) streams.push_back(ReaderStream(r, phase));
  if (traced) {
    traced_begin_ = acked_;
    for (size_t c = 0; c < columns_.size(); ++c) {
      auto est = server_->CurrentEstimator(RelationOf(c), columns_[c].attribute);
      traced_start_estimator_[c] = est.ok() ? est.value() : nullptr;
    }
  }
  std::vector<PhaseStats> reader_out(readers);
  std::vector<PhaseStats> writer_out(config_.loaders);
  std::atomic<bool> stop{false};
  // Readers and loaders (slots 0.. and readers..) each hold a core of
  // their own and move to the next core together every window, so a slow
  // spell of one core slows a window, not the phase; the refresh worker
  // keeps the last core. Every core is held awake, for the thread that
  // moves there next and for threads that block (loaders in fdatasync or
  // on the server's mutexes, the worker between refreshes).
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::unique_ptr<KeepCoreAwake>> awake;
  for (unsigned c = 0; cores > 1 && c < cores; ++c) {
    awake.push_back(std::make_unique<KeepCoreAwake>(c));
  }
  Tracer::SetEnabled(traced);
  const uint64_t start = NowNs();
  const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
  for (PhaseStats& s : reader_out) s.read_ns.start_ns = start;
  stats.read_ns.start_ns = start;
  std::vector<std::thread> threads;
  for (size_t r = 0; r < readers; ++r) {
    threads.emplace_back([&, r]() {
      ReaderLoop(streams[r], r, traced, stop, reader_out[r]);
    });
  }
  for (size_t w = 0; w < config_.loaders; ++w) {
    threads.emplace_back([&, w]() {
      LoaderLoop(w, readers + w, start, end, traced, writer_out[w]);
    });
  }
  std::this_thread::sleep_for(std::chrono::nanoseconds(end - start));
  const uint64_t stopped = NowNs();
  stop.store(true);
  for (std::thread& t : threads) t.join();
  Tracer::SetEnabled(false);
  if (traced) traced_end_ = acked_;

  stats.seconds = static_cast<double>(stopped - start) * 1e-9;
  for (PhaseStats& r : reader_out) {
    stats.read_ns.Merge(r.read_ns);
    stats.reads += r.reads;
    stats.front_ns.insert(stats.front_ns.end(), r.front_ns.begin(),
                          r.front_ns.end());
    stats.direct_compared += r.direct_compared;
    stats.direct_mismatches += r.direct_mismatches;
  }
  for (PhaseStats& w : writer_out) {
    stats.ack_ns.Merge(w.ack_ns);
    stats.lateness_ns.Merge(w.lateness_ns);
    stats.batches += w.batches;
    stats.rows += w.rows;
    stats.due_batches += w.due_batches;
    stats.unsent_batches += w.unsent_batches;
    stats.busy_ns += w.busy_ns;
    stats.lag_ms.insert(stats.lag_ms.end(), w.lag_ms.begin(), w.lag_ms.end());
    stats.lag_unresolved += w.lag_unresolved;
  }
  if (config_.loaders > 0) {
    stats.writer_busy_pct = 100.0 * static_cast<double>(stats.busy_ns) /
                            (static_cast<double>(config_.loaders) *
                             static_cast<double>(end - start));
  }
  return stats;
}

void LiveHarness::Quiesce(bool traced) {
  const size_t n = columns_.size();
  server_->WaitForRefreshes();

  // Counters as the workload left them, before the forced refreshes.
  uint64_t serves = 0, flips = 0, refreshes = 0, merges = 0, rebuilds = 0,
           refresh_errors = 0, refresh_retries = 0, writebacks = 0,
           writeback_errors = 0, wal_appends = 0, wal_errors = 0, missed = 0;
  writebacks_.assign(n, 0);
  for (size_t c = 0; c < n; ++c) {
    report_.Attempt();
    const auto s = server_->ColumnStats(RelationOf(c), columns_[c].attribute);
    if (!s.ok()) {
      report_.Error("ColumnStats", s.status().ToString());
      continue;
    }
    serves += s->serves;
    flips += s->generation - 1;
    refreshes += s->refreshes;
    merges += s->merge_refreshes;
    rebuilds += s->rebuild_refreshes;
    refresh_errors += s->refresh_errors;
    refresh_retries += s->refresh_retries;
    writebacks += s->writebacks;
    writebacks_[c] = s->writebacks;
    writeback_errors += s->writeback_errors;
    wal_appends += s->wal_appends;
    wal_errors += s->wal_append_errors;
    // The coalescing gap: still a full threshold behind once every
    // scheduled refresh has finished. Reported as found, not forced away.
    if (config_.refresh_rows > 0 && s->rows_since_refresh >= config_.refresh_rows) {
      ++missed;
    }
  }
  report_.Set("live_server.serves", static_cast<double>(serves), n);
  report_.Set("live_server.generation_flips", static_cast<double>(flips), n);
  report_.Set("live_server.refreshes", static_cast<double>(refreshes), n);
  report_.Set("live_server.merge_refreshes", static_cast<double>(merges), n);
  report_.Set("live_server.rebuild_refreshes", static_cast<double>(rebuilds), n);
  report_.Set("live_server.refresh_errors", static_cast<double>(refresh_errors), n);
  report_.Set("live_server.refresh_retries", static_cast<double>(refresh_retries), n);
  report_.Set("live_server.writebacks", static_cast<double>(writebacks), n);
  report_.Set("live_server.writeback_errors", static_cast<double>(writeback_errors), n);
  report_.Set("live_server.missed_refreshes", static_cast<double>(missed), n);
  if (config_.durable) {
    report_.Set("wal.appends", static_cast<double>(wal_appends), n);
    report_.Set("wal.append_errors", static_cast<double>(wal_errors), n);
    report_.Set("snapshot_store.puts",
                static_cast<double>(server_->store()->puts()), 1);
  }

  // The crash image: the log and snapshot files as a crash right now would
  // leave them. Each column's log still holds a tail past its last
  // snapshot mark, which the forced refreshes below would publish and mark.
  if (config_.durable) CopyDurableState(config_.workdir, CrashImage());

  // One forced refresh per column, so the served generation covers every
  // acknowledged row.
  std::vector<double> merge_ms;
  std::vector<double> rebuild_ms;
  for (size_t c = 0; c < n; ++c) {
    report_.Attempt();
    const uint64_t t0 = NowNs();
    const selest::Status st = [&]() {
      Span span(SpanName::kLiveRefresh);
      return server_->Refresh(RelationOf(c), columns_[c].attribute);
    }();
    (columns_[c].mergeable ? merge_ms : rebuild_ms).push_back(Ms(NowNs() - t0));
    if (!st.ok()) report_.Error("Refresh", st.ToString());
  }
  if (!merge_ms.empty()) {
    report_.Set("live_server.refresh_ms.merge", MeanOf(merge_ms), merge_ms.size());
  }
  if (!rebuild_ms.empty()) {
    report_.Set("live_server.refresh_ms.rebuild", MeanOf(rebuild_ms),
                rebuild_ms.size());
  }

  // Every row each column holds: registration sample + acknowledged batches.
  held_.clear();
  std::vector<double> batch(config_.batch_rows);
  for (size_t c = 0; c < n; ++c) {
    const FileInputs& file = FileOf(c);
    std::vector<double> rows = file.sample;
    rows.reserve(rows.size() + acked_[c] * config_.batch_rows);
    for (uint64_t k = 0; k < acked_[c]; ++k) {
      FillBatch(c, k, batch);
      rows.insert(rows.end(), batch.begin(), batch.end());
    }
    held_.push_back(std::make_unique<selest::Dataset>(
        file.relation + "." + columns_[c].attribute, file.data->domain(),
        std::move(rows)));
  }

  uint64_t compared = 0;
  uint64_t wrong = 0;
  uint64_t rows_wrong = 0;
  double mre_sum = 0.0;
  size_t mre_columns = 0;
  uint64_t storage_bytes = 0;
  pre_restart_answers_.assign(n, {});
  for (size_t c = 0; c < n; ++c) {
    const FileInputs& file = FileOf(c);
    const std::string& attribute = columns_[c].attribute;
    report_.Attempt();
    const auto gen = server_->CurrentGeneration(file.relation, attribute);
    if (!gen.ok()) {
      report_.Error("CurrentGeneration", gen.status().ToString());
      continue;
    }
    const selest::SelectivityEstimator& est = *gen.value()->estimator;
    storage_bytes += est.StorageBytes();
    if (gen.value()->rows_at_build != held_[c]->size()) ++rows_wrong;
    const double rows = static_cast<double>(held_[c]->size());
    double sum = 0.0;
    size_t used = 0;
    for (const auto* band : {&file.narrow, &file.wide}) {
      for (size_t i = 0; i < kProbesPerBand; ++i) {
        const selest::RangeQuery& q = (*band)[i];
        report_.Attempt();
        const auto served = server_->EstimateDetailed(file.relation, attribute, q);
        if (!served.ok()) {
          report_.Error("EstimateDetailed", served.status().ToString());
          continue;
        }
        ++compared;
        if (served->generation != gen.value()->number ||
            !BitEqual(served->value, est.EstimateSelectivity(q))) {
          ++wrong;
        }
        pre_restart_answers_[c].push_back(served->value);
        const size_t exact = held_[c]->CountInRange(q.a, q.b);
        if (exact == 0) continue;
        sum += std::abs(served->value * rows - static_cast<double>(exact)) /
               static_cast<double>(exact);
        ++used;
      }
    }
    if (used > 0) {
      mre_sum += sum / static_cast<double>(used);
      ++mre_columns;
    }
  }
  report_.Check("quiesce.served_equals_generation", compared, wrong,
                "EstimateDetailed bit-equals its generation's direct call");
  report_.Check("quiesce.rows_at_build_equals_held", n, rows_wrong);
  report_.Set("served_mre",
              mre_columns == 0 ? 0.0 : mre_sum / static_cast<double>(mre_columns),
              compared);
  report_.Set("est.storage_bytes", static_cast<double>(storage_bytes), n);
  if (!traced) return;

  // Direct per-kind estimate cost on the final generations.
  std::map<std::string, std::pair<double, uint64_t>> cost;
  for (size_t c = 0; c < n; ++c) {
    const FileInputs& file = FileOf(c);
    const auto est = server_->CurrentEstimator(file.relation, columns_[c].attribute);
    if (!est.ok()) continue;
    for (const auto& [band, queries] :
         {std::pair<const char*, const std::vector<selest::RangeQuery>*>{
              "narrow", &file.narrow},
          {"wide", &file.wide}}) {
      double sink = 0.0;
      uint64_t calls = 0;
      const uint64_t t0 = NowNs();
      do {
        for (const selest::RangeQuery& q : *queries) {
          sink += est.value()->EstimateSelectivity(q);
        }
        calls += queries->size();
      } while (NowNs() - t0 < 2'000'000);
      const double ns = static_cast<double>(NowNs() - t0) /
                        static_cast<double>(calls);
      if (!(sink >= 0.0)) report_.Error("EstimateSelectivity", "negative sum");
      auto& slot = cost[columns_[c].kind + "." + band];
      slot.first += ns;
      ++slot.second;
    }
  }
  for (const auto& [name, slot] : cost) {
    report_.Set("est.estimate_ns." + name,
                slot.first / static_cast<double>(slot.second), slot.second);
  }

  // Serialize-clone (the merge refresh's publish step) and store Put
  // replays on the final generations.
  Tracer::SetEnabled(true);
  std::vector<double> clone_us;
  std::vector<double> put_ms;
  double snapshot_bytes_written = 0.0;
  std::optional<selest::SnapshotStore> replay_store;
  if (config_.durable) replay_store.emplace(config_.workdir + "/replay_store");
  for (size_t c = 0; c < n; ++c) {
    const auto est = server_->CurrentEstimator(RelationOf(c), columns_[c].attribute);
    if (!est.ok()) continue;
    if (columns_[c].mergeable) {
      for (int rep = 0; rep < 5; ++rep) {
        report_.Attempt();
        const uint64_t t0 = NowNs();
        Span span(SpanName::kSnapshotClone);
        auto bytes = selest::SnapshotEstimator(*est.value());
        if (!bytes.ok()) {
          report_.Error("SnapshotEstimator", bytes.status().ToString());
          break;
        }
        auto clone = selest::LoadEstimatorSnapshot(bytes.value());
        if (!clone.ok()) report_.Error("LoadEstimatorSnapshot", clone.status().ToString());
        clone_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
      }
    }
    if (!replay_store.has_value()) continue;
    const selest::CatalogKey key = KeyOf(c);
    for (int rep = 0; rep < 3; ++rep) {
      report_.Attempt();
      const uint64_t t0 = NowNs();
      Span span(SpanName::kStorePut);
      const selest::Status st = replay_store->Put(key, *est.value());
      put_ms.push_back(Ms(NowNs() - t0));
      if (!st.ok()) report_.Error("SnapshotStore::Put", st.ToString());
    }
    std::error_code ec;
    const auto size = std::filesystem::file_size(replay_store->PathFor(key), ec);
    if (!ec) {
      snapshot_bytes_written +=
          static_cast<double>(size) * static_cast<double>(writebacks_[c]);
    }
  }
  Tracer::SetEnabled(false);
  if (!clone_us.empty()) {
    report_.Set("est.snapshot_clone_us", MeanOf(clone_us), clone_us.size());
  }
  if (!put_ms.empty()) {
    report_.Set("snapshot_store.put_ms", MeanOf(put_ms), put_ms.size());
  }
  const double user_bytes = static_cast<double>(rows_acked()) * sizeof(double);
  if (config_.durable && user_bytes > 0.0) {
    report_.Set("snapshot_store.bytes_per_user_byte",
                snapshot_bytes_written / user_bytes, n);
    uint64_t wal_bytes = 0;
    std::error_code ec;
    for (const auto& entry : std::filesystem::recursive_directory_iterator(
             config_.workdir + "/wal", ec)) {
      if (entry.is_regular_file()) wal_bytes += entry.file_size();
    }
    report_.Set("wal.bytes_per_user_byte",
                static_cast<double>(wal_bytes) / user_bytes, n);
  }
}

std::vector<SweepCell> LiveHarness::ReanalyzeCells() {
  reanalyze_setups_.clear();
  reanalyze_setups_.reserve(columns_.size());
  std::vector<SweepCell> cells;
  for (size_t c = 0; c < columns_.size(); ++c) {
    const FileInputs& file = FileOf(c);
    selest::ExperimentSetup setup;
    setup.data = held_[c].get();
    selest::Rng rng(MixSeed(inputs_.seed, 20, c));
    setup.sample = selest::SampleWithoutReplacement(
        held_[c]->values(), std::min(kSampleSize, held_[c]->size()), rng);
    setup.queries = file.narrow;
    setup.queries.insert(setup.queries.end(), file.wide.begin(), file.wide.end());
    reanalyze_setups_.push_back(std::move(setup));
    cells.push_back(SweepCell{&reanalyze_setups_.back(), {columns_[c].config}});
  }
  return cells;
}

void LiveHarness::Restart(int min_repeats, double min_seconds) {
  const size_t n = columns_.size();
  std::vector<double> seconds;
  std::vector<std::vector<double>> column_s;
  const std::string image_copy = config_.workdir + "/restart";
  const uint64_t start = NowNs();
  CoreRotation rotation;
  for (int r = 0; r < min_repeats ||
                  static_cast<double>(NowNs() - start) * 1e-9 < min_seconds;
       ++r) {
    rotation.Next();
    server_.reset();
    if (config_.durable) CopyDurableState(CrashImage(), image_copy);
    server_ = std::make_unique<selest::LiveStatisticsServer>(
        Options(image_copy));
    const uint64_t t0 = NowNs();
    Span root(SpanName::kRestart, Tracer::enabled() ? NextRequestId() : 0);
    column_s.emplace_back();
    for (size_t c = 0; c < n; ++c) {
      const FileInputs& file = FileOf(c);
      report_.Attempt();
      const uint64_t c0 = NowNs();
      selest::Status st;
      if (config_.durable) {
        Span span(SpanName::kLiveRecover);
        st = server_->RecoverColumn(file.relation, columns_[c].attribute,
                                    file.data->domain(),
                                    columns_[c].config.config);
      } else {
        // An in-memory server has no log: a restart rebuilds every column
        // from its registration rows.
        Span span(SpanName::kLiveRegister);
        st = server_->RegisterColumn(file.relation, columns_[c].attribute,
                                     file.data->domain(),
                                     columns_[c].config.config, file.sample);
      }
      column_s.back().push_back(static_cast<double>(NowNs() - c0) * 1e-9);
      if (!st.ok()) {
        report_.Error(config_.durable ? "RecoverColumn" : "RegisterColumn",
                      st.ToString());
      }
    }
    seconds.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  recover_s_ = SumOfFastest(column_s);
  report_.Set("recover_s", recover_s_, seconds.size());
  std::printf("restart times (s):");
  for (double s : seconds) std::printf(" %.4f", s);
  std::printf("\n");

  uint64_t rows_wrong = 0;
  uint64_t compared = 0;
  uint64_t wrong = 0;
  uint64_t used_snapshot = 0;
  for (size_t c = 0; c < n; ++c) {
    const FileInputs& file = FileOf(c);
    const std::string& attribute = columns_[c].attribute;
    const auto gen = server_->CurrentGeneration(file.relation, attribute);
    if (!gen.ok()) {
      ++rows_wrong;
      continue;
    }
    const uint64_t expected =
        config_.durable ? held_[c]->size() : file.sample.size();
    if (gen.value()->rows_at_build != expected) ++rows_wrong;
    const auto stats = server_->ColumnStats(file.relation, attribute);
    if (stats.ok() && stats->recovery_used_snapshot) ++used_snapshot;
    if (!config_.durable || !columns_[c].mergeable) continue;
    size_t i = 0;
    for (const auto* band : {&file.narrow, &file.wide}) {
      for (size_t k = 0; k < kProbesPerBand; ++k, ++i) {
        if (i >= pre_restart_answers_[c].size()) break;
        report_.Attempt();
        const auto served = server_->EstimateDetailed(file.relation, attribute,
                                                      (*band)[k]);
        ++compared;
        if (!served.ok() || !BitEqual(served->value, pre_restart_answers_[c][i])) {
          ++wrong;
        }
      }
    }
  }
  if (config_.durable) {
    report_.Check("recovery.rows_equal_acknowledged", n, rows_wrong);
    report_.Check("recovery.mergeable_bit_identical", compared, wrong,
                  "probe answers equal the generation covering every "
                  "acknowledged row");
    report_.Set("recovery.used_snapshot", static_cast<double>(used_snapshot), n);
  } else {
    report_.Check("restart.rows_equal_registration", n, rows_wrong);
  }
}

void LiveHarness::ReplayLayers() {
  Tracer::SetEnabled(true);
  ReplayIngestLayers();
  if (config_.durable) ReplayRecovery();
  Tracer::SetEnabled(false);
}

void LiveHarness::ReplayIngestLayers() {
  Histogram wal_ns;
  Histogram fold_ns;
  Histogram reservoir_ns;
  Histogram online_ns;
  uint64_t batches = 0;
  std::unique_ptr<selest::WriteAheadLog> wal;
  if (config_.durable) {
    // A fresh log with the server's policy: fdatasync on every append.
    auto opened = selest::WriteAheadLog::Open(config_.workdir + "/replay_wal",
                                              selest::WalOptions{},
                                              /*reset=*/true);
    report_.Attempt();
    if (!opened.ok()) {
      report_.Error("WriteAheadLog::Open", opened.status().ToString());
    } else {
      wal = std::move(opened).value();
    }
  }
  std::vector<double> batch(config_.batch_rows);
  for (size_t c = 0; c < columns_.size(); ++c) {
    const FileInputs& file = FileOf(c);
    const uint64_t begin = traced_begin_[c];
    const uint64_t end = std::min(traced_end_[c], begin + kReplayBatchesPerColumn);
    if (end <= begin) continue;
    // Untimed prefix: the ingest-side state the column held when the
    // traced phase began.
    selest::DecayingReservoir reservoir(2000, 0.0, MixSeed(inputs_.seed, 30, c));
    selest::OnlineSelectivityEstimator online(file.data->domain());
    reservoir.AddBatch(file.sample);
    online.AddSamples(file.sample);
    for (uint64_t k = 0; k < begin; ++k) {
      FillBatch(c, k, batch);
      reservoir.AddBatch(batch);
      online.AddSamples(batch);
    }
    std::unique_ptr<selest::SelectivityEstimator> accumulator;
    if (columns_[c].mergeable && traced_start_estimator_[c] != nullptr) {
      auto bytes = selest::SnapshotEstimator(*traced_start_estimator_[c]);
      if (bytes.ok()) {
        auto loaded = selest::LoadEstimatorSnapshot(bytes.value());
        if (loaded.ok()) accumulator = std::move(loaded).value();
      }
    }
    for (uint64_t k = begin; k < end; ++k) {
      FillBatch(c, k, batch);
      ++batches;
      if (wal != nullptr && wal_ns.count() < kReplayWalAppends) {
        std::vector<uint8_t> payload = selest::EncodeRowBatch(batch);
        report_.Attempt();
        const uint64_t t0 = NowNs();
        selest::Status st;
        {
          Span span(SpanName::kWalAppendSync);
          st = wal->Append(selest::WalRecordType::kIngest, std::move(payload));
        }
        wal_ns.Add(NowNs() - t0);
        if (!st.ok()) report_.Error("WriteAheadLog::Append", st.ToString());
      }
      if (accumulator != nullptr) {
        report_.Attempt();
        const uint64_t t0 = NowNs();
        selest::Status st;
        {
          Span span(SpanName::kEstFold);
          st = accumulator->FoldRows(batch);
        }
        fold_ns.Add(NowNs() - t0);
        if (!st.ok()) report_.Error("FoldRows", st.ToString());
      }
      uint64_t t0 = NowNs();
      {
        Span span(SpanName::kReservoirAdd);
        reservoir.AddBatch(batch);
      }
      reservoir_ns.Add(NowNs() - t0);
      t0 = NowNs();
      {
        Span span(SpanName::kOnlineAdd);
        online.AddSamples(batch);
      }
      online_ns.Add(NowNs() - t0);
    }
  }
  if (batches == 0) return;
  const std::vector<SpanAggregate> spans = Tracer::Aggregate();
  const SpanAggregate& ingest = spans[static_cast<size_t>(SpanName::kLiveIngest)];
  const double ingest_mean_us = ingest.duration.Mean() * 1e-3;
  report_.Set("live_server.ingest_us.p50", ingest.duration.Percentile(0.5) * 1e-3,
              ingest.count);
  if (wal_ns.count() > 0) {
    report_.Set("wal.append_sync_us.p50", wal_ns.Percentile(0.5) * 1e-3, wal_ns.count());
    report_.Set("wal.append_sync_us.p99", wal_ns.Percentile(0.99) * 1e-3, wal_ns.count());
  }
  if (fold_ns.count() > 0) {
    report_.Set("est.fold_us.p50", fold_ns.Percentile(0.5) * 1e-3, fold_ns.count());
  }
  report_.Set("sample.reservoir_add_us.p50", reservoir_ns.Percentile(0.5) * 1e-3,
              reservoir_ns.count());
  report_.Set("online.add_samples_us.p50", online_ns.Percentile(0.5) * 1e-3,
              online_ns.count());
  // Mean cost each layer adds to one Ingest call (rebuild-kind columns do
  // no fold, so the fold is averaged over every replayed batch).
  const double per_batch = static_cast<double>(batches);
  const double wal_us = wal_ns.Mean() * 1e-3;
  const double fold_us = fold_ns.Sum() * 1e-3 / per_batch;
  const double reservoir_us = reservoir_ns.Mean() * 1e-3;
  const double online_us = online_ns.Mean() * 1e-3;
  const double other_us = ingest_mean_us - wal_us - fold_us - reservoir_us - online_us;
  report_.Set("live_server.ingest_other_us", other_us, ingest.count);
  std::printf("replay attribution of live_server.Ingest (mean per call, %.0f batches):\n",
              per_batch);
  const auto row = [ingest_mean_us](const char* name, double us) {
    std::printf("  %-40s %10.3f us %7.1f%%\n", name, us,
                ingest_mean_us > 0.0 ? 100.0 * us / ingest_mean_us : 0.0);
  };
  row("live_server.Ingest (traced span)", ingest_mean_us);
  row("wal.Append+Sync", wal_us);
  row("est.FoldRows", fold_us);
  row("sample.DecayingReservoir.AddBatch", reservoir_us);
  row("online.AddSamples", online_us);
  row("unexplained remainder", other_us);
}

void LiveHarness::ReplayRecovery() {
  // Release the recovered server's log handles first; replay a fresh copy
  // of the crash image the timed restarts recovered.
  server_.reset();
  const std::string root = config_.workdir + "/restart";
  CopyDurableState(CrashImage(), root);
  selest::SnapshotStore store(root + "/snapshots");
  uint64_t open_ns = 0, replay_ns = 0, fold_ns = 0, build_ns = 0;
  uint64_t replayed = 0;
  for (size_t c = 0; c < columns_.size(); ++c) {
    const FileInputs& file = FileOf(c);
    const selest::CatalogKey key = KeyOf(c);
    const std::string dir =
        selest::LiveStatisticsServer::WalDirectoryFor(root + "/wal", key);
    report_.Attempt();
    uint64_t t0 = NowNs();
    auto wal = [&]() {
      Span span(SpanName::kWalOpen);
      return selest::WriteAheadLog::Open(dir, selest::WalOptions{});
    }();
    open_ns += NowNs() - t0;
    if (!wal.ok()) {
      report_.Error("WriteAheadLog::Open", wal.status().ToString());
      continue;
    }
    std::vector<selest::WalRecord> records;
    t0 = NowNs();
    {
      Span span(SpanName::kWalReplay);
      const selest::Status st = wal.value()->Replay(
          [&records](const selest::WalRecord& r) {
            records.push_back(r);
            return selest::Status::Ok();
          });
      if (!st.ok()) report_.Error("WriteAheadLog::Replay", st.ToString());
    }
    replay_ns += NowNs() - t0;
    replayed += records.size();

    std::vector<double> registration;
    std::vector<std::pair<uint64_t, std::vector<double>>> batches;
    uint64_t covered = 0;
    bool have_mark = false;
    for (const selest::WalRecord& r : records) {
      if (r.type == selest::WalRecordType::kSnapshotMark) {
        const auto mark = selest::DecodeSnapshotMark(r.payload);
        if (mark.ok()) {
          covered = mark->covered_sequence;
          have_mark = true;
        }
        continue;
      }
      auto rows = selest::DecodeRowBatch(r.payload);
      if (!rows.ok()) {
        report_.Error("DecodeRowBatch", rows.status().ToString());
        continue;
      }
      if (r.type == selest::WalRecordType::kRegister) {
        registration = std::move(rows).value();
      } else {
        batches.emplace_back(r.sequence, std::move(rows).value());
      }
    }

    if (columns_[c].mergeable) {
      t0 = NowNs();
      std::unique_ptr<selest::SelectivityEstimator> accumulator;
      {
        Span span(SpanName::kStoreGet);
        auto got = store.Get(key);
        if (got.ok() && have_mark) accumulator = std::move(got).value();
      }
      if (accumulator == nullptr) {
        Span span(SpanName::kEstBuild);
        auto built = selest::BuildEstimator(registration, file.data->domain(),
                                            columns_[c].config.config);
        if (built.ok()) accumulator = std::move(built).value();
        covered = 0;
      }
      if (accumulator != nullptr) {
        Span span(SpanName::kEstFold);
        for (const auto& [seq, rows] : batches) {
          if (seq > covered) (void)accumulator->FoldRows(rows);
        }
      }
      fold_ns += NowNs() - t0;
      if (accumulator != nullptr) {
        t0 = NowNs();
        Span span(SpanName::kSnapshotClone);
        auto bytes = selest::SnapshotEstimator(*accumulator);
        if (bytes.ok()) (void)selest::LoadEstimatorSnapshot(bytes.value());
        build_ns += NowNs() - t0;
      }
    }
    // Every column replays its batches into the reservoir and the online
    // estimator; rebuild kinds then build from the reservoir.
    t0 = NowNs();
    {
      selest::DecayingReservoir reservoir(2000, 0.0, MixSeed(inputs_.seed, 31, c));
      selest::OnlineSelectivityEstimator online(file.data->domain());
      {
        Span span(SpanName::kReservoirAdd);
        reservoir.AddBatch(registration);
        for (const auto& [seq, rows] : batches) reservoir.AddBatch(rows);
      }
      {
        Span span(SpanName::kOnlineAdd);
        online.AddSamples(registration);
        for (const auto& [seq, rows] : batches) online.AddSamples(rows);
      }
      if (!columns_[c].mergeable) {
        Span span(SpanName::kRecoveryBuild);
        const std::span<const double> view = reservoir.values();
        const std::vector<double> rows(view.begin(), view.end());
        auto built = selest::BuildEstimator(rows, file.data->domain(),
                                            columns_[c].config.config);
        if (!built.ok()) report_.Error("BuildEstimator", built.status().ToString());
      }
    }
    build_ns += NowNs() - t0;
  }
  report_.Set("wal.open_ms", Ms(open_ns), columns_.size());
  report_.Set("wal.replay_ms", Ms(replay_ns), columns_.size());
  report_.Set("recovery.fold_ms", Ms(fold_ns), columns_.size());
  report_.Set("recovery.build_ms", Ms(build_ns), columns_.size());
  report_.Set("recovery.replayed_records", static_cast<double>(replayed),
              columns_.size());
  const double total_ms = recover_s_ * 1e3;
  const double put_ms = report_.Get("snapshot_store.put_ms") *
                        static_cast<double>(columns_.size());
  const double other = total_ms - Ms(open_ns) - Ms(replay_ns) - Ms(fold_ns) -
                       Ms(build_ns) - put_ms;
  std::printf("replay attribution of live_server.RecoverColumn (all columns):\n");
  const auto row = [total_ms](const char* name, double ms) {
    std::printf("  %-40s %10.3f ms %7.1f%%\n", name, ms,
                total_ms > 0.0 ? 100.0 * ms / total_ms : 0.0);
  };
  row("recover_s (timed RecoverColumn calls)", total_ms);
  row("wal.Open", Ms(open_ns));
  row("wal.Replay", Ms(replay_ns));
  row("snapshot_store.Get + est.FoldRows tail", Ms(fold_ns));
  row("reservoir/online replay + rebuild/clone", Ms(build_ns));
  row("snapshot_store.Put write-back", put_ms);
  row("unexplained remainder", other);
}

}  // namespace perfbench
