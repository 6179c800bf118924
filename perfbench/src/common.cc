#include "perfbench/src/common.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <thread>

#include <pthread.h>
#include <sched.h>

#include "src/util/simd.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

uint64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------
namespace {

constexpr uint64_t kExactLimit = 2048;  // 2^11
constexpr int kSubBits = 7;
constexpr size_t kNumBuckets = kExactLimit + (64 - 11) * (1u << kSubBits);

size_t BucketOf(uint64_t v) {
  if (v < kExactLimit) return static_cast<size_t>(v);
  const int e = std::bit_width(v) - 1;  // >= 11
  const uint64_t top = v >> (e - kSubBits);  // in [128, 256)
  return kExactLimit + static_cast<size_t>(e - 11) * (1u << kSubBits) +
         static_cast<size_t>(top - (1u << kSubBits));
}

void BucketRange(size_t b, double* low, double* width) {
  if (b < kExactLimit) {
    *low = static_cast<double>(b);
    *width = 1.0;
    return;
  }
  const size_t rel = b - kExactLimit;
  const int e = static_cast<int>(rel >> kSubBits) + 11;
  const uint64_t top = (rel & ((1u << kSubBits) - 1)) + (1u << kSubBits);
  *low = std::ldexp(static_cast<double>(top), e - kSubBits);
  *width = std::ldexp(1.0, e - kSubBits);
}

}  // namespace

Histogram::Histogram() : buckets_(kNumBuckets, 0) {}

void Histogram::Add(uint64_t value) {
  ++buckets_[BucketOf(value)];
  ++count_;
  sum_ += static_cast<double>(value);
}

void Histogram::Merge(const Histogram& other) {
  for (size_t i = 0; i < kNumBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
}

double Histogram::Mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double Histogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  // Rank of the p-quantile among count_ sorted values, then linear
  // interpolation across the bucket that holds it.
  const double rank = p * static_cast<double>(count_);
  uint64_t before = 0;
  for (size_t b = 0; b < kNumBuckets; ++b) {
    const uint64_t in = buckets_[b];
    if (in == 0) continue;
    if (static_cast<double>(before + in) >= rank) {
      double low = 0.0;
      double width = 0.0;
      BucketRange(b, &low, &width);
      const double frac =
          std::clamp((rank - static_cast<double>(before)) /
                         static_cast<double>(in),
                     0.0, 1.0);
      return low + frac * width;
    }
    before += in;
  }
  double low = 0.0;
  double width = 0.0;
  BucketRange(kNumBuckets - 1, &low, &width);
  return low + width;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double SumOfFastest(const std::vector<std::vector<double>>& times) {
  if (times.empty()) return 0.0;
  std::vector<double> fastest = times[0];
  for (const std::vector<double>& repeat : times) {
    for (size_t u = 0; u < fastest.size() && u < repeat.size(); ++u) {
      fastest[u] = std::min(fastest[u], repeat[u]);
    }
  }
  double sum = 0.0;
  for (double t : fastest) sum += t;
  return sum;
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------
namespace {

constexpr size_t kMaxRawSpansPerThread = 1u << 17;
constexpr uint32_t kNoParent = UINT32_MAX;
constexpr size_t kNumSpanNames = static_cast<size_t>(SpanName::kCount);

struct RawSpan {
  uint64_t request;
  uint64_t start;
  uint64_t end;
  uint32_t parent;
  uint32_t name;
};

struct OpenFrame {
  SpanName name;
  uint64_t request;
  uint64_t start;
  uint64_t child_ns;
  uint32_t raw_index;
};

struct ThreadTrace {
  uint32_t ordinal = 0;
  uint64_t next_request = 0;
  std::vector<OpenFrame> stack;
  std::vector<RawSpan> raw;
  uint64_t dropped = 0;
  std::vector<SpanAggregate> aggregates{kNumSpanNames};
};

std::mutex g_threads_mu;
std::vector<std::unique_ptr<ThreadTrace>> g_threads;  // guarded by g_threads_mu

ThreadTrace& Local() {
  thread_local ThreadTrace* local = nullptr;
  if (local == nullptr) {
    auto owned = std::make_unique<ThreadTrace>();
    std::lock_guard<std::mutex> lock(g_threads_mu);
    owned->ordinal = static_cast<uint32_t>(g_threads.size());
    local = owned.get();
    g_threads.push_back(std::move(owned));
  }
  return *local;
}

}  // namespace

std::atomic<bool> Tracer::enabled_{false};

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kServeRead: return "bench.serve_read";
    case SpanName::kLiveEstimate: return "live_server.EstimateDetailed";
    case SpanName::kEstDirect: return "est.EstimateSelectivity";
    case SpanName::kIngestBatch: return "bench.ingest_batch";
    case SpanName::kLiveIngest: return "live_server.Ingest";
    case SpanName::kLiveCurrentGen: return "live_server.CurrentGeneration";
    case SpanName::kLiveRefresh: return "live_server.Refresh";
    case SpanName::kLiveRegister: return "live_server.RegisterColumn";
    case SpanName::kLiveRecover: return "live_server.RecoverColumn";
    case SpanName::kRestart: return "bench.restart";
    case SpanName::kWalAppendSync: return "wal.Append+Sync";
    case SpanName::kWalOpen: return "wal.Open";
    case SpanName::kWalReplay: return "wal.Replay";
    case SpanName::kEstFold: return "est.FoldRows";
    case SpanName::kReservoirAdd: return "sample.DecayingReservoir.AddBatch";
    case SpanName::kOnlineAdd: return "online.AddSamples";
    case SpanName::kSnapshotClone: return "est.SnapshotClone";
    case SpanName::kStorePut: return "snapshot_store.Put";
    case SpanName::kStoreGet: return "snapshot_store.Get";
    case SpanName::kRecoveryBuild: return "est.BuildEstimator(recovery)";
    case SpanName::kSweepPass: return "bench.sweep_pass";
    case SpanName::kRunConfigs: return "eval.RunConfigsParallel";
    case SpanName::kTruthCount: return "ground_truth.Count";
    case SpanName::kEstBuild: return "est.BuildEstimator";
    case SpanName::kEstBatch: return "est.EstimateSelectivityBatch";
    case SpanName::kReduce: return "eval.AccumulateReport";
    case SpanName::kDpi: return "smoothing.DirectPlugInBandwidth";
    case SpanName::kCount: break;
  }
  return "unknown";
}

const char* SpanModule(SpanName name) {
  switch (name) {
    case SpanName::kServeRead:
    case SpanName::kIngestBatch:
    case SpanName::kRestart:
    case SpanName::kSweepPass:
      return "bench";
    case SpanName::kLiveEstimate:
    case SpanName::kLiveIngest:
    case SpanName::kLiveCurrentGen:
    case SpanName::kLiveRefresh:
    case SpanName::kLiveRegister:
    case SpanName::kLiveRecover:
    case SpanName::kStorePut:
    case SpanName::kStoreGet:
      return "catalog";
    case SpanName::kWalAppendSync:
    case SpanName::kWalOpen:
    case SpanName::kWalReplay:
      return "durability";
    case SpanName::kEstDirect:
    case SpanName::kEstFold:
    case SpanName::kSnapshotClone:
    case SpanName::kRecoveryBuild:
    case SpanName::kEstBuild:
    case SpanName::kEstBatch:
      return "est";
    case SpanName::kReservoirAdd:
      return "sample";
    case SpanName::kOnlineAdd:
      return "online";
    case SpanName::kRunConfigs:
    case SpanName::kReduce:
      return "eval";
    case SpanName::kTruthCount:
      return "query";
    case SpanName::kDpi:
      return "smoothing";
    case SpanName::kCount:
      break;
  }
  return "unknown";
}

void Tracer::SetEnabled(bool enabled) {
  enabled_.store(enabled, std::memory_order_relaxed);
}

std::vector<SpanAggregate> Tracer::Aggregate() {
  std::vector<SpanAggregate> total(kNumSpanNames);
  std::lock_guard<std::mutex> lock(g_threads_mu);
  for (const auto& thread : g_threads) {
    for (size_t i = 0; i < kNumSpanNames; ++i) {
      const SpanAggregate& a = thread->aggregates[i];
      total[i].count += a.count;
      total[i].total_ns += a.total_ns;
      total[i].self_ns += a.self_ns;
      total[i].duration.Merge(a.duration);
    }
  }
  return total;
}

uint64_t Tracer::dropped_raw_spans() {
  std::lock_guard<std::mutex> lock(g_threads_mu);
  uint64_t dropped = 0;
  for (const auto& thread : g_threads) dropped += thread->dropped;
  return dropped;
}

uint64_t Tracer::WriteTsv(const std::string& path) {
  std::ofstream out(path);
  out << "thread\tid\tparent\trequest\tname\tstart_ns\tend_ns\n";
  uint64_t written = 0;
  std::lock_guard<std::mutex> lock(g_threads_mu);
  for (const auto& thread : g_threads) {
    for (size_t i = 0; i < thread->raw.size(); ++i) {
      const RawSpan& s = thread->raw[i];
      out << thread->ordinal << '\t' << i << '\t'
          << (s.parent == kNoParent ? -1 : static_cast<int64_t>(s.parent))
          << '\t' << s.request << '\t'
          << SpanNameString(static_cast<SpanName>(s.name)) << '\t' << s.start
          << '\t' << s.end << '\n';
      ++written;
    }
  }
  return written;
}

Span::Span(SpanName name, uint64_t request) {
  if (!Tracer::enabled()) return;
  active_ = true;
  ThreadTrace& t = Local();
  if (request == 0 && !t.stack.empty()) request = t.stack.back().request;
  const uint32_t parent =
      t.stack.empty() ? kNoParent : t.stack.back().raw_index;
  uint32_t raw_index = kNoParent;
  const uint64_t start = NowNs();
  if (t.raw.size() < kMaxRawSpansPerThread) {
    raw_index = static_cast<uint32_t>(t.raw.size());
    t.raw.push_back(RawSpan{request, start, 0, parent,
                            static_cast<uint32_t>(name)});
  } else {
    ++t.dropped;
  }
  t.stack.push_back(OpenFrame{name, request, start, 0, raw_index});
}

Span::~Span() {
  if (!active_) return;
  const uint64_t end = NowNs();
  ThreadTrace& t = Local();
  const OpenFrame frame = t.stack.back();
  t.stack.pop_back();
  const uint64_t duration = end - frame.start;
  if (frame.raw_index != kNoParent) t.raw[frame.raw_index].end = end;
  SpanAggregate& a = t.aggregates[static_cast<size_t>(frame.name)];
  ++a.count;
  a.total_ns += duration;
  a.self_ns += duration - std::min(duration, frame.child_ns);
  a.duration.Add(duration);
  if (!t.stack.empty()) t.stack.back().child_ns += duration;
}

uint64_t NextRequestId() {
  ThreadTrace& t = Local();
  return (static_cast<uint64_t>(t.ordinal + 1) << 40) | ++t.next_request;
}

// ---------------------------------------------------------------------------
// Host context
// ---------------------------------------------------------------------------
namespace {

// A fixed, dependency-chained floating-point burn: no memory traffic, so
// its scaling measures the cores the host actually grants.
double Burn(uint64_t iterations) {
  double x = 1.0;
  for (uint64_t i = 0; i < iterations; ++i) x = x * 1.0000001 + 1e-9;
  return x;
}

double TimeBurn(unsigned threads, uint64_t iterations) {
  std::vector<double> sink(threads, 0.0);
  const uint64_t start = NowNs();
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&sink, t, iterations]() {
      sink[t] = Burn(iterations);
    });
  }
  for (std::thread& w : workers) w.join();
  const double ms = static_cast<double>(NowNs() - start) * 1e-6;
  double keep = 0.0;
  for (double s : sink) keep += s;
  if (keep == 0.0) std::fprintf(stderr, "burn sink\n");
  return ms;
}

}  // namespace

void PinToCore(unsigned core) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(core, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

CoreRotation::CoreRotation()
    : cores_(std::max(1u, std::thread::hardware_concurrency())) {
  CPU_ZERO(&saved_);
  restore_ =
      pthread_getaffinity_np(pthread_self(), sizeof(saved_), &saved_) == 0;
}

CoreRotation::~CoreRotation() {
  if (restore_) pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
}

void CoreRotation::Next() {
  if (cores_ > 1) PinToCore(next_++ % cores_);
}

KeepCoreAwake::KeepCoreAwake(unsigned core)
    : spinner_([this, core]() {
        sched_param param{};
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
        PinToCore(core);
        while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
          __builtin_ia32_pause();
#endif
        }
      }) {}

KeepCoreAwake::~KeepCoreAwake() {
  stop_.store(true);
  spinner_.join();
}

HostContext MeasureHost() {
  HostContext host;
  host.nproc = std::max(1u, std::thread::hardware_concurrency());
  const uint64_t warm_until = NowNs() + 1'500'000'000ull;
  while (NowNs() < warm_until) TimeBurn(host.nproc, 1'000'000);
  constexpr uint64_t kIterations = 20'000'000;
  // Best of three: the burn measures what the host can grant, so the
  // fastest repetition is the least disturbed one.
  host.burn_1_ms = 1e30;
  host.burn_n_ms = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    host.burn_1_ms = std::min(host.burn_1_ms, TimeBurn(1, kIterations));
    host.burn_n_ms =
        std::min(host.burn_n_ms, TimeBurn(host.nproc, kIterations));
  }
  host.parallelism =
      static_cast<double>(host.nproc) * host.burn_1_ms / host.burn_n_ms;
  host.simd_tier = selest::SimdTierName(selest::ActiveSimdTier());
  host.build_type = PERFBENCH_BUILD_TYPE;
  return host;
}

namespace {

double StatusFieldMib(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0) {
      return std::strtod(line.c_str() + len, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

}  // namespace

double PeakRssMib() { return StatusFieldMib("VmHWM:"); }
double CurrentRssMib() { return StatusFieldMib("VmRSS:"); }

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------
const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"serve_p50_ns", "ns"},
      {"serve_p99_ns", "ns"},
      {"serve_reads_per_s", "1/s"},
      {"ingest_rows_per_s", "rows/s"},
      {"recover_s", "s"},
      {"served_mre", "ratio"},
      {"sweep_s", "s"},
      {"sweep_mre", "ratio"},
      {"peak_rss_mib", "MiB"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> s = {
        {"host.parallelism", "x"},
        {"live_server.estimate_ns.p50", "ns"},
        {"live_server.front_ns.p50", "ns"},
        {"live_server.read_scaling", "ratio"},
        {"live_server.serves", "count"},
        {"live_server.generation_flips", "count"},
    };
    for (const char* kind :
         {"equi_width", "equi_width_1024", "equi_depth", "ash", "sampling",
          "feedback", "kernel", "hybrid"}) {
      for (const char* band : {"narrow", "wide"}) {
        s.push_back({std::string("est.estimate_ns.") + kind + "." + band,
                     "ns"});
      }
    }
    s.push_back({"est.batch_ns_per_query", "ns"});
    s.push_back({"est.storage_bytes", "bytes"});
    for (const char* config :
         {"sampling", "uniform", "equi_width", "equi_depth", "max_diff", "ash",
          "kernel", "hybrid", "v_optimal", "adaptive_kernel", "wavelet",
          "equi_width_dpi2", "kernel_dpi2"}) {
      s.push_back({std::string("est.build_ms.") + config, "ms"});
    }
    const std::vector<MetricSpec> rest = {
        {"smoothing.dpi_ms", "ms"},
        {"eval.phase_ms.truth", "ms"},
        {"eval.phase_ms.build", "ms"},
        {"eval.phase_ms.estimate", "ms"},
        {"eval.phase_ms.reduce", "ms"},
        {"eval.critical_path_share", "ratio"},
        {"exec.effective_parallelism", "x"},
        {"ground_truth.count_ns", "ns"},
        {"live_server.ingest_us.p50", "us"},
        {"wal.append_sync_us.p50", "us"},
        {"wal.append_sync_us.p99", "us"},
        {"est.fold_us.p50", "us"},
        {"sample.reservoir_add_us.p50", "us"},
        {"online.add_samples_us.p50", "us"},
        {"live_server.ingest_other_us", "us"},
        {"wal.bytes_per_user_byte", "ratio"},
        {"wal.appends", "count"},
        {"wal.append_errors", "count"},
        {"live_server.refresh_ms.merge", "ms"},
        {"live_server.refresh_ms.rebuild", "ms"},
        {"est.snapshot_clone_us", "us"},
        {"snapshot_store.put_ms", "ms"},
        {"snapshot_store.bytes_per_user_byte", "ratio"},
        {"snapshot_store.puts", "count"},
        {"live_server.refreshes", "count"},
        {"live_server.merge_refreshes", "count"},
        {"live_server.rebuild_refreshes", "count"},
        {"live_server.refresh_errors", "count"},
        {"live_server.refresh_retries", "count"},
        {"live_server.writebacks", "count"},
        {"live_server.writeback_errors", "count"},
        {"live_server.missed_refreshes", "count"},
        {"wal.open_ms", "ms"},
        {"wal.replay_ms", "ms"},
        {"recovery.fold_ms", "ms"},
        {"recovery.build_ms", "ms"},
        {"recovery.used_snapshot", "count"},
        {"recovery.replayed_records", "count"},
        {"rss.setup_mib", "MiB"},
        {"rss.bytes_per_ingested_row", "bytes"},
        {"ingest_ack_p50_us", "us"},
        {"ingest_ack_p90_us", "us"},
        {"ingest_ack_p99_us", "us"},
        {"fresh_lag_p50_ms", "ms"},
        {"load.writer_lateness_p99_us", "us"},
        {"load.writer_busy_pct", "%"},
        {"trace.overhead_pct", "%"},
        {"trace.unexplained_pct", "%"},
    };
    s.insert(s.end(), rest.begin(), rest.end());
    return s;
  }();
  return specs;
}

void Report::Set(const std::string& name, double value, uint64_t samples) {
  std::lock_guard<std::mutex> lock(mu_);
  values_[name] = Value{value, samples};
}

double Report::Get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second.value;
}

void Report::Check(const std::string& name, uint64_t compared,
                   uint64_t mismatches, const std::string& detail) {
  Attempt(compared);
  Fail(mismatches);
  char line[512];
  std::snprintf(line, sizeof(line), "check %-34s %s  (%" PRIu64
                " compared, %" PRIu64 " wrong)%s%s",
                name.c_str(), mismatches == 0 ? "PASS" : "FAIL", compared,
                mismatches, detail.empty() ? "" : "  ", detail.c_str());
  std::lock_guard<std::mutex> lock(mu_);
  if (mismatches != 0) checks_ok_ = false;
  check_lines_.push_back(line);
}

void Report::Error(const std::string& where, const std::string& status) {
  Fail();
  std::lock_guard<std::mutex> lock(mu_);
  if (errors_printed_++ < 10) {
    std::fprintf(stderr, "error in %s: %s\n", where.c_str(), status.c_str());
  }
}

void Report::Print(bool trace) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::string& line : check_lines_) std::printf("%s\n", line.c_str());
  const auto print_set = [this](const char* title,
                                const std::vector<MetricSpec>& specs) {
    std::printf("%s\n", title);
    for (const MetricSpec& spec : specs) {
      const auto it = values_.find(spec.name);
      if (it == values_.end()) {
        std::printf("  %-40s %16s %-7s (not exercised by this workload)\n",
                    spec.name.c_str(), "0", spec.unit.c_str());
      } else {
        std::printf("  %-40s %16.6g %-7s (n=%" PRIu64 ")\n", spec.name.c_str(),
                    it->second.value, spec.unit.c_str(), it->second.samples);
      }
    }
  };
  print_set("end-to-end metrics:", EndToEndMetrics());
  if (trace) {
    print_set("per-layer metrics:", PerLayerMetrics());
  } else {
    // Per-layer values an untraced run measures anyway (the ingest acks
    // and freshness lag among them) are printed too, but not gated.
    std::vector<MetricSpec> measured;
    for (const MetricSpec& spec : PerLayerMetrics()) {
      if (values_.count(spec.name) > 0) measured.push_back(spec);
    }
    print_set("per-layer metrics measured without tracing:", measured);
  }
  const uint64_t attempted = attempted_.load();
  const uint64_t failed = failed_.load();
  std::printf("operations attempted=%" PRIu64 " failed=%" PRIu64 "\n",
              attempted, failed);

  const std::vector<MetricSpec>& specs =
      trace ? PerLayerMetrics() : EndToEndMetrics();
  std::string json = "{\"correct\": ";
  json += (checks_ok_ && failed == 0) ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<uint64_t>(1, attempted));
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < specs.size(); ++i) {
    const auto it = values_.find(specs[i].name);
    double value = it == values_.end() ? 0.0 : it->second.value;
    if (!std::isfinite(value)) value = 0.0;
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value);
    json += (i == 0 ? "\"" : ", \"") + specs[i].name + "\": {\"value\": " +
            number + ", \"unit\": \"" + specs[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

uint64_t Fnv1a(const void* data, size_t bytes, uint64_t hash) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace perfbench
