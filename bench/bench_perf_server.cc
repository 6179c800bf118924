// Perf bench: the live statistics server's serve front under many readers.
//
// BM_LiveServe/readers:N runs N reader threads against 64 equi-width live
// columns named like the end-to-end benchmark's (perfbench/): the eight
// headline files as relations, eight attributes each, a00 to a63. Every
// reader calls the string-keyed EstimateDetailed on its own seeded stream
// of (column, query) requests, half narrow and half wide queries. Beside
// them one paced ingest thread sends a 64-row batch to the next column
// every 250 us, and with a refresh every 128 rows the columns keep
// flipping generations on a one-worker background pool.
//
// One iteration is one round of kReadsPerRound reads per reader, the
// benchmark's own thread among the readers, so its CPU time tracks the
// round (real_time in the JSON is the round's wall time). Readers claim
// the round's reads kChunk at a time, so a reader that shares its core
// with the ingest thread does fewer reads instead of holding the round
// open while the others idle. Counters:
//   reads_per_s             served reads per second, all readers together;
//   reads_per_s_per_reader  the same divided by N;
//   p50_ns                  median latency of every 16th read, timed with
//                           steady_clock around the call (so it includes
//                           one clock read);
//   flips                   generations published while the rounds ran.
// A non-OK status from any call, or a failed background refresh, stops
// the benchmark with SkipWithError.
//
// The custom main writes BENCH_server.json unless --benchmark_out is
// given, and records the host's parallelism (a CPU burn on nproc threads
// against one) in the JSON context, so a reader-scaling curve can be read
// against what the host grants.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <benchmark/benchmark.h>

#include "src/catalog/live_server.h"
#include "src/data/domain.h"
#include "src/est/estimator_factory.h"
#include "src/eval/paper_data.h"
#include "src/exec/thread_pool.h"
#include "src/query/range_query.h"
#include "src/util/random.h"
#include "src/util/status.h"

namespace selest {
namespace {

constexpr size_t kColumns = 64;
constexpr size_t kColumnsPerRelation = 8;
constexpr size_t kSampleRows = 2000;
constexpr size_t kQueries = 512;  // per band layout: even narrow, odd wide
constexpr size_t kStreamLength = 1 << 14;
constexpr size_t kReadsPerRound = 1 << 15;
constexpr size_t kChunk = 256;
constexpr size_t kSampleEvery = 16;
constexpr size_t kBatchRows = 64;
constexpr size_t kRefreshRows = 128;
constexpr auto kIngestPeriod = std::chrono::microseconds(250);

const Domain kDomain = ContinuousDomain(0.0, 1.0e6);

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// "rr1(22)" -> "rr1_22", as perfbench names its relations.
std::string RelationName(const std::string& file) {
  std::string out;
  for (char c : file) {
    if (c == '(') {
      out += '_';
    } else if (c != ')') {
      out += c;
    }
  }
  return out;
}

std::vector<double> MakeRows(size_t n, Rng& rng) {
  std::vector<double> rows(n);
  for (double& x : rows) {
    x = kDomain.Clamp(0.5e6 + 1.2e5 * rng.NextGaussian());
  }
  return rows;
}

// The live columns, the queries, and the ingest thread that keeps them
// flipping. The pool is declared first so it outlives the server, whose
// destructor drains the refreshes scheduled on it.
class Fixture {
 public:
  Fixture() : pool_(1), server_(Options(&pool_)) {
    const std::vector<std::string> files = HeadlineFileNames();
    EstimatorConfig config;
    config.kind = EstimatorKind::kEquiWidth;
    Rng rng(7);
    for (size_t c = 0; c < kColumns && error_.empty(); ++c) {
      relations_.push_back(RelationName(files[c / kColumnsPerRelation]));
      attributes_.push_back((c < 10 ? "a0" : "a") + std::to_string(c));
      const Status registered = server_.RegisterColumn(
          relations_[c], attributes_[c], kDomain, config,
          MakeRows(kSampleRows, rng));
      if (!registered.ok()) error_ = registered.ToString();
    }
    Rng query_rng(11);
    queries_.resize(kQueries);
    for (size_t q = 0; q < kQueries; ++q) {
      const double width = (q % 2 == 0 ? 0.01 : 0.25) * kDomain.width();
      const double a = (kDomain.width() - width) * query_rng.NextDouble();
      queries_[q] = {a, a + width};
    }
  }

  ~Fixture() { StopIngest(); }

  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;

  void StartIngest() {
    ingester_ = std::thread([this]() {
      Rng rng(13);
      auto due = std::chrono::steady_clock::now();
      for (size_t batch = 0; !stop_.load(std::memory_order_relaxed);
           ++batch) {
        const size_t c = batch % kColumns;
        const Status ingested = server_.Ingest(
            relations_[c], attributes_[c], MakeRows(kBatchRows, rng));
        if (!ingested.ok()) {
          ingest_error_ = ingested.ToString();
          return;
        }
        due += kIngestPeriod;
        std::this_thread::sleep_until(due);
      }
    });
  }

  void StopIngest() {
    if (!ingester_.joinable()) return;
    stop_.store(true, std::memory_order_relaxed);
    ingester_.join();
    server_.WaitForRefreshes();
  }

  // Over every column: generations published after registration, and
  // background refreshes that failed, which surface nowhere else.
  struct Refreshes {
    uint64_t flips = 0;
    uint64_t errors = 0;
  };
  Refreshes CountRefreshes() {
    Refreshes total;
    for (size_t c = 0; c < kColumns; ++c) {
      const auto stats = server_.ColumnStats(relations_[c], attributes_[c]);
      if (!stats.ok()) continue;
      total.flips += stats->generation - 1;
      total.errors += stats->refresh_errors;
    }
    return total;
  }

  // After StopIngest; empty when every call succeeded.
  const std::string& error() const {
    return error_.empty() ? ingest_error_ : error_;
  }

  LiveStatisticsServer& server() { return server_; }
  const std::string& relation(size_t c) const { return relations_[c]; }
  const std::string& attribute(size_t c) const { return attributes_[c]; }
  const RangeQuery& query(size_t q) const { return queries_[q]; }

 private:
  static LiveServerOptions Options(ThreadPool* pool) {
    LiveServerOptions options;
    options.refresh_ingest_rows = kRefreshRows;
    options.background_refresh = true;
    options.pool = pool;
    return options;
  }

  ThreadPool pool_;
  LiveStatisticsServer server_;
  std::vector<std::string> relations_;
  std::vector<std::string> attributes_;
  std::vector<RangeQuery> queries_;
  std::string error_;
  std::string ingest_error_;
  std::atomic<bool> stop_{false};
  std::thread ingester_;
};

// N readers: the calling thread and N - 1 threads that live across
// rounds, so a round times reads, not thread start-up. RunRound releases
// the threads, reads along with them until the round's N * kReadsPerRound
// reads are claimed, and returns when the last reader is done.
class ReaderCrew {
 public:
  ReaderCrew(Fixture& fixture, size_t readers)
      : fixture_(fixture), readers_(readers) {
    for (size_t r = 0; r < readers_.size(); ++r) {
      // A request packs column << 16 | query.
      Rng rng(100 + r);
      readers_[r].stream.resize(kStreamLength);
      for (uint32_t& request : readers_[r].stream) {
        request = static_cast<uint32_t>(rng.NextUint64(kColumns) << 16 |
                                        rng.NextUint64(kQueries));
      }
    }
    for (size_t r = 1; r < readers_.size(); ++r) {
      threads_.emplace_back([this, r]() { Loop(readers_[r]); });
    }
  }

  ~ReaderCrew() {
    stop_.store(true);
    round_.fetch_add(1);
    round_.notify_all();
    for (std::thread& thread : threads_) thread.join();
  }

  ReaderCrew(const ReaderCrew&) = delete;
  ReaderCrew& operator=(const ReaderCrew&) = delete;

  void RunRound() {
    claimed_.store(0);
    remaining_.store(threads_.size());
    round_.fetch_add(1);
    round_.notify_all();
    Read(readers_[0]);
    for (size_t left = remaining_.load(); left != 0;
         left = remaining_.load()) {
      remaining_.wait(left);
    }
  }

  std::vector<uint64_t> Samples() const {
    std::vector<uint64_t> all;
    for (const Reader& reader : readers_) {
      all.insert(all.end(), reader.samples.begin(), reader.samples.end());
    }
    return all;
  }

  std::string Error() const {
    for (const Reader& reader : readers_) {
      if (!reader.error.empty()) return reader.error;
    }
    return {};
  }

 private:
  struct Reader {
    std::vector<uint32_t> stream;
    size_t next = 0;
    std::vector<uint64_t> samples;
    std::string error;
  };

  void Read(Reader& reader) {
    LiveStatisticsServer& server = fixture_.server();
    const size_t round_reads = kReadsPerRound * readers_.size();
    double sink = 0.0;
    for (size_t left = 0; reader.error.empty(); --left, ++reader.next) {
      if (left == 0) {
        if (claimed_.fetch_add(kChunk) >= round_reads) break;
        left = kChunk;
      }
      const uint32_t request = reader.stream[reader.next % kStreamLength];
      const size_t c = request >> 16;
      const RangeQuery& query = fixture_.query(request & 0xffff);
      const bool timed = reader.next % kSampleEvery == 0;
      const uint64_t begin = timed ? NowNs() : 0;
      const auto served = server.EstimateDetailed(
          fixture_.relation(c), fixture_.attribute(c), query);
      if (timed) reader.samples.push_back(NowNs() - begin);
      if (!served.ok()) {
        reader.error = served.status().ToString();
      } else {
        sink += served->value;
      }
    }
    benchmark::DoNotOptimize(sink);
  }

  void Loop(Reader& reader) {
    uint64_t seen = 0;
    for (;;) {
      round_.wait(seen);
      seen = round_.load();
      if (stop_.load()) break;
      Read(reader);
      if (remaining_.fetch_sub(1) == 1) remaining_.notify_one();
    }
  }

  Fixture& fixture_;
  std::vector<Reader> readers_;
  std::atomic<uint64_t> round_{0};
  std::atomic<size_t> claimed_{0};
  std::atomic<size_t> remaining_{0};
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;  // last: joined before the rest goes
};

void BM_LiveServe(benchmark::State& state) {
  const size_t readers = static_cast<size_t>(state.range(0));
  Fixture fixture;
  if (!fixture.error().empty()) {
    state.SkipWithError(fixture.error().c_str());
    return;
  }
  fixture.StartIngest();
  const uint64_t flips_before = fixture.CountRefreshes().flips;
  uint64_t rounds = 0;
  uint64_t elapsed_ns = 0;
  std::vector<uint64_t> samples;
  std::string error;
  {
    ReaderCrew crew(fixture, readers);
    for (auto _ : state) {
      const uint64_t begin = NowNs();
      crew.RunRound();
      elapsed_ns += NowNs() - begin;
      ++rounds;
    }
    samples = crew.Samples();
    error = crew.Error();
  }
  const uint64_t flips = fixture.CountRefreshes().flips - flips_before;
  fixture.StopIngest();
  if (error.empty()) error = fixture.error();
  const uint64_t refresh_errors = fixture.CountRefreshes().errors;
  if (error.empty() && refresh_errors != 0) {
    error = std::to_string(refresh_errors) + " background refreshes failed";
  }
  if (!error.empty()) {
    state.SkipWithError(error.c_str());
    return;
  }
  const double reads = static_cast<double>(rounds * kReadsPerRound * readers);
  const double seconds = static_cast<double>(elapsed_ns) * 1e-9;
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                   samples.end());
  state.counters["reads_per_s"] = reads / seconds;
  state.counters["reads_per_s_per_reader"] =
      reads / seconds / static_cast<double>(readers);
  state.counters["p50_ns"] =
      samples.empty() ? 0.0
                      : static_cast<double>(samples[samples.size() / 2]);
  state.counters["flips"] = static_cast<double>(flips);
}
BENCHMARK(BM_LiveServe)
    ->ArgName("readers")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// A dependency-chained floating-point burn: no memory traffic, so how it
// scales measures the cores the host grants.
double Burn(uint64_t iterations) {
  double x = 1.0;
  for (uint64_t i = 0; i < iterations; ++i) x = x * 1.0000001 + 1e-9;
  return x;
}

double BurnMs(unsigned threads, uint64_t iterations) {
  std::vector<double> results(threads, 0.0);
  const uint64_t begin = NowNs();
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back(
        [&results, t, iterations]() { results[t] = Burn(iterations); });
  }
  for (std::thread& worker : workers) worker.join();
  benchmark::DoNotOptimize(results.data());
  return static_cast<double>(NowNs() - begin) * 1e-6;
}

// nproc × (one thread's burn time) / (nproc threads' burn time), best of
// three each, after 1.5 s of burning on every core: on a VM an idle vCPU
// can take that long to be granted again, and before that nproc threads
// share fewer cores than they see.
double HostParallelism() {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const uint64_t warm_until = NowNs() + 1'500'000'000ull;
  while (NowNs() < warm_until) BurnMs(nproc, 1'000'000);
  constexpr uint64_t kIterations = 10'000'000;
  double one = 1e30;
  double all = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    one = std::min(one, BurnMs(1, kIterations));
    all = std::min(all, BurnMs(nproc, kIterations));
  }
  return static_cast<double>(nproc) * one / all;
}

}  // namespace
}  // namespace selest

// Custom main instead of benchmark_main: unless the caller already chose a
// report destination, results also land in BENCH_server.json, which
// tools/bench_diff.py compares against a previous build's file. Each case
// also warms up for a second unless the caller sets the warm-up, so the
// readers run on cores the host has granted (see HostParallelism).
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  bool has_warmup = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg.rfind("--benchmark_out", 0) == 0) has_out = true;
    if (arg.rfind("--benchmark_min_warmup_time", 0) == 0) has_warmup = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_server.json";
  std::string format_flag = "--benchmark_out_format=json";
  std::string warmup_flag = "--benchmark_min_warmup_time=1";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  if (!has_warmup) args.push_back(warmup_flag.data());
  char parallelism[32];
  std::snprintf(parallelism, sizeof(parallelism), "%.2f",
                selest::HostParallelism());
  benchmark::AddCustomContext("host_parallelism", parallelism);
  int arg_count = static_cast<int>(args.size());
  benchmark::Initialize(&arg_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(arg_count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
