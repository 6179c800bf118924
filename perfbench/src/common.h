// Shared plumbing of the selest end-to-end benchmark: clocks, latency
// histograms, the span tracer, host context and the result report.
//
// Everything here belongs to the benchmark, not to the library: spans are
// recorded around the benchmark's own calls into selest's public entry
// points, never inside src/.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Process CPU time (user + system, all threads) in nanoseconds.
uint64_t ProcessCpuNs();

// Log-linear latency histogram: exact below 2048, then 128 sub-buckets
// per octave (< 0.8% relative bucket width). Percentiles interpolate
// inside the bucket, so a reported value carries all its digits.
class Histogram {
 public:
  Histogram();
  void Add(uint64_t value);
  void Merge(const Histogram& other);
  uint64_t count() const { return count_; }
  double Mean() const;
  double Sum() const { return sum_; }
  // p in [0, 1]; 0 when empty.
  double Percentile(double p) const;

 private:
  std::vector<uint32_t> buckets_;  // per-bucket counts stay below 2^32
  uint64_t count_ = 0;
  double sum_ = 0.0;
};

// Median of a vector of doubles (copied); 0 when empty.
double Median(std::vector<double> values);

// `times[r][u]` is the time of unit u (a sweep cell, a restarted column) in
// repeat r. Returns the sum over units of each unit's fastest time: the
// repeat as it runs where the host disturbs no unit. On a host that slows
// single cores in spells of about a second, the fastest whole repeat still
// lands in a slow spell in some runs; the fastest of each unit rarely does.
double SumOfFastest(const std::vector<std::vector<double>>& times);

// ---------------------------------------------------------------------------
// Tracing. A span is recorded at each call the benchmark makes into a
// layer's public function: name, start, end, parent span and request id.
// Spans live in per-thread buffers (the first kMaxRawSpansPerThread per
// thread are kept verbatim and written out at the end); every span, kept
// or not, is folded into per-name aggregates of duration and self time
// (duration minus the time covered by its child spans).
// ---------------------------------------------------------------------------
enum class SpanName : uint32_t {
  kServeRead,          // benchmark: one optimizer read (request root)
  kLiveEstimate,       // catalog/live_server: EstimateDetailed
  kEstDirect,          // est: direct EstimateSelectivity on the served gen
  kIngestBatch,        // benchmark: one loader batch (request root)
  kLiveIngest,         // catalog/live_server: Ingest
  kLiveCurrentGen,     // catalog/live_server: CurrentGeneration (lag poll)
  kLiveRefresh,        // catalog/live_server: Refresh
  kLiveRegister,       // catalog/live_server: RegisterColumn
  kLiveRecover,        // catalog/live_server: RecoverColumn
  kRestart,            // benchmark: restart of every column (request root)
  kWalAppendSync,      // durability/wal: Append (+ fdatasync)
  kWalOpen,            // durability/wal: Open
  kWalReplay,          // durability/wal: Replay
  kEstFold,            // est: FoldRows
  kReservoirAdd,       // sample: DecayingReservoir::AddBatch
  kOnlineAdd,          // online: OnlineSelectivityEstimator::AddSamples
  kSnapshotClone,      // est: SnapshotEstimator + LoadEstimatorSnapshot
  kStorePut,           // catalog/snapshot_store: Put
  kStoreGet,           // catalog/snapshot_store: Get
  kRecoveryBuild,      // est: BuildEstimator from the replayed reservoir
  kSweepPass,          // benchmark: one sweep pass (request root)
  kRunConfigs,         // eval: RunConfigsParallel (one cell)
  kTruthCount,         // query: GroundTruth::Count over a cell's queries
  kEstBuild,           // est: BuildEstimator
  kEstBatch,           // est: EstimateSelectivityBatch
  kReduce,             // eval: AccumulateReport
  kDpi,                // smoothing: DirectPlugInBandwidth
  kCount,
};
const char* SpanNameString(SpanName name);
// The src/<module> a span's callee lives in ("bench" for request roots).
const char* SpanModule(SpanName name);

struct SpanAggregate {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
  Histogram duration;
};

class Tracer {
 public:
  static void SetEnabled(bool enabled);
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }
  // Aggregates over every thread that recorded spans, by SpanName.
  static std::vector<SpanAggregate> Aggregate();
  // Writes the kept raw spans as TSV (thread, id, parent, request, name,
  // start_ns, end_ns); returns the number of spans written.
  static uint64_t WriteTsv(const std::string& path);
  static uint64_t dropped_raw_spans();

 private:
  static std::atomic<bool> enabled_;
};

// RAII span; a no-op when tracing is off.
class Span {
 public:
  explicit Span(SpanName name, uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
};

// Per-thread request ids: thread ordinal in the high bits.
uint64_t NextRequestId();

// ---------------------------------------------------------------------------
// Host context and memory.
// ---------------------------------------------------------------------------
struct HostContext {
  unsigned nproc = 1;
  double burn_1_ms = 0.0;
  double burn_n_ms = 0.0;
  double parallelism = 0.0;  // nproc * t(1 thread) / t(nproc threads)
  std::string simd_tier;
  std::string build_type;
};
// Warms every core with a 1.5 s burn (on a shared host, cores left idle
// for a second or more can take about a second of load before they are
// granted again), then runs a fixed CPU burn on 1 and on nproc threads.
// Call it right before a timed phase.
HostContext MeasureHost();

// Pins the calling thread to one core (ignored where affinity is refused).
void PinToCore(unsigned core);

// Moves the calling thread to the next core on each Next() and restores
// its affinity when destroyed. Repeated single-core timings rotate so that
// their fastest repeat is taken over every core: the host slows single
// cores by 1.4-2x in spells of a second or more, and a thread left on one
// core can spend a whole run in slow spells.
class CoreRotation {
 public:
  CoreRotation();
  ~CoreRotation();
  CoreRotation(const CoreRotation&) = delete;
  CoreRotation& operator=(const CoreRotation&) = delete;
  void Next();

 private:
  cpu_set_t saved_;
  bool restore_ = false;
  unsigned cores_ = 1;
  unsigned next_ = 0;
};

// Keeps one core busy with a SCHED_IDLE spinner for its lifetime. Any
// normal thread on that core preempts it at once, so a thread pinned there
// and woken by the server (the refresh worker) starts without waiting for
// the host to grant a halted core back.
class KeepCoreAwake {
 public:
  explicit KeepCoreAwake(unsigned core);
  ~KeepCoreAwake();
  KeepCoreAwake(const KeepCoreAwake&) = delete;
  KeepCoreAwake& operator=(const KeepCoreAwake&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::thread spinner_;
};

// VmHWM / VmRSS from /proc/self/status, in MiB.
double PeakRssMib();
double CurrentRssMib();

// ---------------------------------------------------------------------------
// The result report: every metric by name with unit and sample count, the
// correctness checks, and the final one-line JSON.
// ---------------------------------------------------------------------------
class Report {
 public:
  void Set(const std::string& name, double value, uint64_t samples = 1);
  double Get(const std::string& name) const;

  // Every operation attempted against the library, and every failed one
  // (non-OK Status or failed correctness comparison).
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Fail(uint64_t n = 1) { failed_ += n; }
  // Records a correctness check: `compared` comparisons, `mismatches` of
  // them wrong. Mismatches count as failed operations.
  void Check(const std::string& name, uint64_t compared, uint64_t mismatches,
             const std::string& detail = "");
  // A non-OK status from the library: counted failed, first few printed.
  void Error(const std::string& where, const std::string& status);

  // Prints every metric with its unit and sample count, then the final
  // JSON line with the end-to-end (trace off) or per-layer (trace on)
  // metric set.
  void Print(bool trace) const;

 private:
  struct Value {
    double value = 0.0;
    uint64_t samples = 0;
  };
  mutable std::mutex mu_;
  std::map<std::string, Value> values_;
  std::vector<std::string> check_lines_;
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  bool checks_ok_ = true;
  uint64_t errors_printed_ = 0;
};

struct MetricSpec {
  std::string name;
  std::string unit;
};
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

// FNV-1a over raw bytes, chained.
uint64_t Fnv1a(const void* data, size_t bytes, uint64_t hash);
inline constexpr uint64_t kFnvOffset = 1469598103934665603ull;

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
