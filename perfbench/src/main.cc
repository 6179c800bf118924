// selest end-to-end benchmark.
//
//   perfbench --workload serve|ingest|analyze --seed N --seconds S
//             --trace 0|1 [--workdir DIR] [--trace-out FILE] [--inputs-only]
//
// Generates every input from the seed, drives the library through its
// public entry points the way its users do, checks the answers, and prints
// each metric with its unit and sample count. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"} with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// See perfbench/README.md for what each workload is for.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/common.h"
#include "perfbench/src/inputs.h"
#include "perfbench/src/live.h"
#include "perfbench/src/sweep.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool inputs_only = false;
  std::string workdir = ".bench_build/work";
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--inputs-only") {
      args->inputs_only = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return (args->workload == "serve" || args->workload == "ingest" ||
          args->workload == "analyze") &&
         args->seconds > 0.0;
}

// ---------------------------------------------------------------------------
// Column catalogs.
// ---------------------------------------------------------------------------
struct KindDef {
  const char* kind;
  LabeledConfig config;
  bool mergeable;
  int tier;  // popularity class: 0 hottest
};

KindDef Kind(const std::string& kind) {
  using selest::EstimatorKind;
  using selest::SmoothingRule;
  selest::EstimatorConfig c;
  c.boundary = selest::BoundaryPolicy::kBoundaryKernel;
  c.ash_shifts = 10;
  if (kind == "equi_width") {
    c.kind = EstimatorKind::kEquiWidth;
    return {"equi_width", {"equi_width", c}, true, 0};
  }
  if (kind == "equi_width_1024") {
    c.kind = EstimatorKind::kEquiWidth;
    c.smoothing = SmoothingRule::kFixed;
    c.fixed_smoothing = 1024;
    return {"equi_width_1024", {"equi_width_1024", c}, true, 1};
  }
  if (kind == "equi_depth") {
    c.kind = EstimatorKind::kEquiDepth;
    return {"equi_depth", {"equi_depth", c}, true, 1};
  }
  if (kind == "ash") {
    c.kind = EstimatorKind::kAverageShifted;
    return {"ash", {"ash", c}, false, 1};
  }
  if (kind == "sampling") {
    c.kind = EstimatorKind::kSampling;
    return {"sampling", {"sampling", c}, true, 2};
  }
  if (kind == "feedback") {
    c.kind = EstimatorKind::kFeedback;
    c.smoothing = SmoothingRule::kFixed;
    c.fixed_smoothing = 64;
    return {"feedback", {"feedback", c}, false, 2};
  }
  if (kind == "kernel") {
    c.kind = EstimatorKind::kKernel;
    c.smoothing = SmoothingRule::kDirectPlugIn;
    return {"kernel", {"kernel_dpi2", c}, false, 3};
  }
  c.kind = EstimatorKind::kHybrid;
  return {"hybrid", {"hybrid", c}, false, 3};
}

// Builds the column list from (file, kind) pairs. Popularity is Zipf(1)
// over a rank order that puts the cheap histogram kinds first and the
// kernel/hybrid kinds last, the skew a catalog's hot columns show.
std::vector<ColumnSpec> Catalog(
    const std::vector<std::pair<size_t, std::string>>& layout) {
  std::vector<ColumnSpec> columns;
  std::vector<int> tiers;
  for (size_t i = 0; i < layout.size(); ++i) {
    const KindDef def = Kind(layout[i].second);
    ColumnSpec spec;
    spec.file = layout[i].first;
    spec.attribute = (i < 10 ? "a0" : "a") + std::to_string(i);
    spec.kind = def.kind;
    spec.config = def.config;
    spec.mergeable = def.mergeable;
    columns.push_back(spec);
    tiers.push_back(def.tier);
  }
  std::vector<size_t> order(columns.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&tiers](size_t a, size_t b) { return tiers[a] < tiers[b]; });
  for (size_t rank = 0; rank < order.size(); ++rank) {
    columns[order[rank]].popularity = 1.0 / static_cast<double>(rank + 1);
  }
  return columns;
}

// serve: 64 columns over the eight headline files. Per file: four h-NS
// equi-width, three from the mid set, one kernel (h-DPI2) or hybrid.
std::vector<ColumnSpec> ServeCatalog(size_t files) {
  const char* mid[] = {"equi_width_1024", "equi_depth", "ash", "sampling",
                       "feedback"};
  std::vector<std::pair<size_t, std::string>> layout;
  size_t next_mid = 0;
  for (size_t f = 0; f < files; ++f) {
    for (int i = 0; i < 4; ++i) layout.emplace_back(f, "equi_width");
    for (int i = 0; i < 3; ++i) layout.emplace_back(f, mid[next_mid++ % 5]);
    layout.emplace_back(f, f % 2 == 0 ? "kernel" : "hybrid");
  }
  return Catalog(layout);
}

// ingest: one column per headline file, mergeable and rebuild kinds mixed.
std::vector<ColumnSpec> IngestCatalog(size_t files) {
  const char* kinds[] = {"equi_width", "sampling",   "equi_depth", "kernel",
                         "equi_width", "equi_depth", "equi_width", "hybrid"};
  std::vector<std::pair<size_t, std::string>> layout;
  for (size_t f = 0; f < files; ++f) layout.emplace_back(f, kinds[f % 8]);
  return Catalog(layout);
}

// analyze publishes its estimators to an in-memory live catalog: the h-NS
// equi-width and equi-depth histograms of every file, plus the kernel
// (h-DPI2) or hybrid estimator of every other file.
std::vector<ColumnSpec> PublishCatalog(size_t files) {
  std::vector<std::pair<size_t, std::string>> layout;
  for (size_t f = 0; f < files; ++f) {
    layout.emplace_back(f, "equi_width");
    layout.emplace_back(f, "equi_depth");
    if (f % 2 == 0) layout.emplace_back(f, f % 4 == 0 ? "kernel" : "hybrid");
  }
  return Catalog(layout);
}

// ---------------------------------------------------------------------------
// Shared metric plumbing.
// ---------------------------------------------------------------------------
void SetLiveEndToEnd(const PhaseStats& s, Report& report) {
  const uint64_t reads = s.read_ns.all.count();
  const uint64_t acks = s.ack_ns.count();
  // Serve figures come from the fastest window (see kWindowNs); the
  // deciles and per-window medians below show the whole phase.
  report.Set("serve_p50_ns", s.read_ns.Percentile(0.50), reads);
  report.Set("serve_p99_ns", s.read_ns.Percentile(0.99), reads);
  report.Set("serve_reads_per_s", s.read_ns.BestRate(s.seconds), reads);
  std::printf("serve latency deciles over the phase (ns):");
  for (int d = 1; d < 10; ++d) std::printf(" %.0f", s.read_ns.all.Percentile(d / 10.0));
  std::printf("\nserve p50 per %.1f s window (ns):",
              static_cast<double>(kWindowNs) * 1e-9);
  for (const Histogram& w : s.read_ns.windows) std::printf(" %.0f", w.Percentile(0.5));
  std::printf("\nserve reads per second over the phase: %.0f",
              static_cast<double>(s.reads) / s.seconds);
  std::printf("\ningest ack deciles over the phase (us):");
  for (int d = 1; d < 10; ++d) std::printf(" %.1f", s.ack_ns.Percentile(d / 10.0) * 1e-3);
  std::printf("\n");
  report.Set("ingest_ack_p50_us", s.ack_ns.Percentile(0.50) * 1e-3, acks);
  report.Set("ingest_ack_p90_us", s.ack_ns.Percentile(0.90) * 1e-3, acks);
  report.Set("ingest_ack_p99_us", s.ack_ns.Percentile(0.99) * 1e-3, acks);
  report.Set("ingest_rows_per_s", static_cast<double>(s.rows) / s.seconds,
             s.batches);
  report.Set("load.writer_busy_pct", s.writer_busy_pct, s.batches);
  report.Set("fresh_lag_p50_ms", Median(s.lag_ms), s.lag_ms.size());
  if (s.lateness_ns.count() > 0) {
    report.Set("load.writer_lateness_p99_us",
               s.lateness_ns.Percentile(0.99) * 1e-3, s.lateness_ns.count());
  }
  if (s.lag_unresolved > 0) {
    std::printf("note: %" PRIu64
                " threshold-crossing batches never became visible\n",
                s.lag_unresolved);
  }
  // A loader behind its schedule is a performance finding, shown by
  // ingest_rows_per_s, not a failed operation: disk stalls of the shared
  // host alone put correct code seconds behind.
  std::printf("load schedule: %" PRIu64 " of %" PRIu64
              " batches due before the end were never sent\n",
              s.unsent_batches, s.due_batches);
}

// Set-up repeats at least this often and for at least this long.
constexpr int kSetupRepeats = 3;
constexpr double kSetupSeconds = 2.5;
constexpr int kRestartRepeats = 5;
// Repeated single-core timings (restarts, re-ANALYZE passes) run for at
// least this long, so each column's or cell's fastest time is likely an
// undisturbed one.
constexpr double kRepeatSeconds = 4.0;

struct PassSeries {
  std::vector<double> wall_s;
  std::vector<double> parallelism;
  std::vector<std::vector<double>> cell_ms;
};

// Runs parallel passes on the shared default pool (ParallelExecOptions
// threads = 0: ThreadPool::Default(), one worker per core) for at least
// `seconds` and `min_passes`, checking every pass bit-for-bit against the
// serial reference.
PassSeries TimePasses(const Sweep& sweep, double seconds, size_t min_passes,
                      const std::vector<double>& reference, uint64_t* compared,
                      uint64_t* wrong, Report& report) {
  PassSeries series;
  const uint64_t start = NowNs();
  while (series.wall_s.size() < min_passes ||
         static_cast<double>(NowNs() - start) * 1e-9 < seconds) {
    const PassResult pass = sweep.Pass(/*threads=*/0, report);
    series.wall_s.push_back(pass.wall_s);
    series.parallelism.push_back(pass.cpu_s / pass.wall_s);
    series.cell_ms.push_back(pass.cell_ms);
    *compared += pass.mres.size();
    *wrong += sweep.Mismatches(pass.mres, reference);
  }
  return series;
}

std::vector<double> CellMedians(const PassSeries& series) {
  std::vector<double> medians;
  if (series.cell_ms.empty()) return medians;
  for (size_t c = 0; c < series.cell_ms[0].size(); ++c) {
    std::vector<double> v;
    for (const auto& pass : series.cell_ms) v.push_back(pass[c]);
    medians.push_back(Median(v));
  }
  return medians;
}

void PrintSeries(const char* title, const std::vector<double>& values) {
  std::printf("%s", title);
  for (double v : values) std::printf(" %.4f", v);
  std::printf("\n");
}

// The re-ANALYZE of a live catalog: one cell per column over every row it
// holds, run as a background job on one core (threads = 1) so it takes no
// cores from the serving threads. At least seven passes over at least
// kRepeatSeconds, each on the next core; sweep_s sums each cell's fastest
// time. One parallel pass on the default pool checks the §7 identity.
void Reanalyze(LiveHarness& harness, bool trace, Report& report) {
  const Sweep sweep(harness.ReanalyzeCells());
  std::vector<double> seconds;
  std::vector<std::vector<double>> cell_ms;
  std::vector<double> reference;
  uint64_t compared = 0;
  uint64_t wrong = 0;
  {
    const uint64_t start = NowNs();
    CoreRotation rotation;
    while (seconds.size() < 7 ||
           static_cast<double>(NowNs() - start) * 1e-9 < kRepeatSeconds) {
      rotation.Next();
      const PassResult pass = sweep.Pass(1, report);
      seconds.push_back(pass.wall_s);
      cell_ms.push_back(pass.cell_ms);
      if (reference.empty()) {
        reference = pass.mres;
      } else {
        wrong += sweep.Mismatches(pass.mres, reference);
        compared += pass.mres.size();
      }
    }
  }
  const PassSeries parallel =
      TimePasses(sweep, 0.0, 1, reference, &compared, &wrong, report);
  report.Check("sweep.parallel_equals_serial", compared, wrong,
               "later passes, serial and RunConfigsParallel, bit-equal the "
               "first threads=1 pass");
  report.Set("sweep_s", SumOfFastest(cell_ms) * 1e-3, seconds.size());
  PrintSeries("re-ANALYZE serial pass times (s):", seconds);
  report.Set("sweep_mre", sweep.MeanCellMre(reference), sweep.num_cells());
  report.Set("exec.effective_parallelism", Median(parallel.parallelism),
             parallel.parallelism.size());
  if (trace) {
    Tracer::SetEnabled(true);
    sweep.SerialReplay(CellMedians(parallel), report);
    Tracer::SetEnabled(false);
  }
}

// Median of timed set-ups, at least kSetupRepeats of them over at least
// kSetupSeconds, each on the next core; keeps the last one's state.
template <typename SetupFn>
void TimeSetup(SetupFn&& setup, Report& report) {
  std::vector<double> seconds;
  {
    CoreRotation rotation;
    const uint64_t start = NowNs();
    while (seconds.size() < kSetupRepeats ||
           static_cast<double>(NowNs() - start) * 1e-9 < kSetupSeconds) {
      rotation.Next();
      const uint64_t t0 = NowNs();
      setup();
      seconds.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    }
  }
  report.Set("setup_s", Median(seconds), seconds.size());
  report.Set("rss.setup_mib", CurrentRssMib(), 1);
}

void PrintLoad(const LiveConfig& config, size_t readers) {
  std::printf("flush policy: %s\n",
              config.durable
                  ? "WAL fdatasync on every append (WalOptions default); "
                    "snapshot write-back on every publish"
                  : "none (in memory: no WAL, no snapshot store)");
  std::printf("load: %zu closed-loop reader(s); %zu %s loader(s) at %.0f "
              "rows/s in all, %zu-row batches, acks timed from the %s; "
              "refresh every %zu rows on a 1-worker pool\n",
              readers, config.loaders,
              config.open_loop ? "open-loop" : "rate-capped closed-loop",
              config.rows_per_s, config.batch_rows,
              config.open_loop ? "due time" : "send", config.refresh_rows);
}

// Host context, measured after set-up so the cores are warm for the timed
// phase that follows.
void MeasureAndPrintHost(Report& report) {
  const HostContext host = MeasureHost();
  std::printf("host: nproc=%u host.parallelism=%.3f (burn: 1 thread %.2f ms, "
              "%u threads %.2f ms) simd=%s build=%s\n",
              host.nproc, host.parallelism, host.burn_1_ms, host.nproc,
              host.burn_n_ms, host.simd_tier.c_str(), host.build_type.c_str());
  report.Set("host.parallelism", host.parallelism, 2);
}

void PrintSelfTimes(Report& report) {
  const std::vector<SpanAggregate> spans = Tracer::Aggregate();
  std::printf("self-time split (self = span minus its child spans):\n");
  std::printf("  %-10s %-36s %10s %12s %12s %12s\n", "module", "span", "count",
              "total_ms", "self_ms", "p50_ns");
  double root_total = 0.0;
  double root_self = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanAggregate& a = spans[i];
    if (a.count == 0) continue;
    const SpanName name = static_cast<SpanName>(i);
    std::printf("  %-10s %-36s %10" PRIu64 " %12.3f %12.3f %12.1f\n",
                SpanModule(name), SpanNameString(name), a.count,
                static_cast<double>(a.total_ns) * 1e-6,
                static_cast<double>(a.self_ns) * 1e-6,
                a.duration.Percentile(0.5));
    if (std::strcmp(SpanModule(name), "bench") == 0) {
      root_total += static_cast<double>(a.total_ns);
      root_self += static_cast<double>(a.self_ns);
    }
  }
  // Request-root self time is time outside every layer span: the
  // benchmark's own loop plus anything no span covers.
  const double unexplained = root_total > 0.0 ? 100.0 * root_self / root_total : 0.0;
  std::printf("  unexplained remainder (request-root self time): %.3f ms of "
              "%.3f ms = %.2f%%\n",
              root_self * 1e-6, root_total * 1e-6, unexplained);
  report.Set("trace.unexplained_pct", unexplained, 1);
}

double OverheadPct(double traced, double untraced) {
  return untraced > 0.0 ? 100.0 * (traced - untraced) / untraced : 0.0;
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------
void RunLive(const Args& args, unsigned nproc, Report& report) {
  const bool serve = args.workload == "serve";
  LiveConfig config;
  // End-to-end serve numbers come from one optimizer thread: with two or
  // more closed-loop readers every read contends on the server's registry
  // mutex, and that contended latency swings ±15% from run to run on a
  // shared host. The traced run reports the multi-reader scaling as
  // live_server.read_scaling instead.
  const size_t readers = 1;
  const size_t scaling_readers = nproc > 2 ? nproc - 2 : 2;
  if (serve) {
    // In memory; one open-loop loader trickles 50-row batches into
    // rotating columns at a fixed rate, so flips land at a fixed rate.
    config.open_loop = true;
    config.loaders = 1;
    config.rows_per_s = 60000.0;
    config.batch_rows = 50;
    config.refresh_rows = 1200;
  } else {
    // Durable: WAL with its default policy (fdatasync every append) and
    // snapshot write-back on every publish. Closed-loop loaders each own
    // their columns; one closed-loop reader serves the same columns. The
    // loaders are capped at a fixed rate: uncapped, the volume followed
    // the shared disk's fsync rate, which moved recover_s, peak RSS and
    // served_mre by 20-40% from run to run.
    config.loaders = nproc > 2 ? nproc - 2 : 1;
    config.durable = true;
    config.rows_per_s = 48000.0;
    config.batch_rows = 24;
    config.refresh_rows = 8192;
  }
  config.workdir = args.workdir;
  PrintLoad(config, readers);

  std::unique_ptr<Inputs> inputs;
  std::unique_ptr<LiveHarness> harness;
  TimeSetup([&]() {
    harness.reset();
    inputs.reset();
    auto made = MakeInputs(args.seed, /*with_sweep=*/false);
    if (!made.ok()) {
      report.Error("MakeInputs", made.status().ToString());
      return;
    }
    inputs = std::make_unique<Inputs>(std::move(made).value());
    std::vector<ColumnSpec> columns =
        serve ? ServeCatalog(inputs->files.size())
              : IngestCatalog(inputs->files.size());
    harness = std::make_unique<LiveHarness>(*inputs, std::move(columns),
                                            config, report);
    harness->Start();
  }, report);
  if (inputs == nullptr) return;
  std::printf("inputs digest: %016" PRIx64 "  columns: %zu\n", inputs->digest,
              harness->num_columns());
  const double setup_rss = CurrentRssMib();
  MeasureAndPrintHost(report);

  PhaseStats main_phase;
  if (!args.trace) {
    main_phase = harness->RunPhase(args.seconds, readers, false);
  } else {
    // Untraced, then (serve only, where readers plus the one loader stay
    // within nproc-1 threads) the same load with nproc-2 readers for the
    // read scaling, then traced; equal parts of the time.
    const double part = args.seconds / (serve ? 3 : 2);
    main_phase = harness->RunPhase(part, readers, false);
    if (serve) {
      const PhaseStats multi = harness->RunPhase(part, scaling_readers, false);
      const double one_rate =
          static_cast<double>(main_phase.reads) / main_phase.seconds;
      const double multi_rate = static_cast<double>(multi.reads) / multi.seconds;
      report.Set("live_server.read_scaling",
                 multi_rate / (static_cast<double>(scaling_readers) * one_rate),
                 main_phase.reads + multi.reads);
    }
    const PhaseStats traced = harness->RunPhase(part, readers, true);
    report.Check("serve.served_equals_direct (traced)", traced.direct_compared,
                 traced.direct_mismatches);
    const std::vector<SpanAggregate> spans = Tracer::Aggregate();
    const SpanAggregate& est = spans[static_cast<size_t>(SpanName::kLiveEstimate)];
    const SpanAggregate& ing = spans[static_cast<size_t>(SpanName::kLiveIngest)];
    report.Set("live_server.estimate_ns.p50", est.duration.Percentile(0.5),
               est.count);
    report.Set("live_server.front_ns.p50", Median(traced.front_ns),
               traced.front_ns.size());
    // Like against like: the traced reads' fastest-window p50 against the
    // untraced one; the traced acks' p50 against the untraced acks'.
    report.Set("trace.overhead_pct",
               serve ? OverheadPct(traced.read_ns.Percentile(0.5),
                                   main_phase.read_ns.Percentile(0.5))
                     : OverheadPct(ing.duration.Percentile(0.5),
                                   main_phase.ack_ns.Percentile(0.5)),
               1);
  }
  SetLiveEndToEnd(main_phase, report);
  const uint64_t rows = harness->rows_acked();
  if (rows > 0) {
    report.Set("rss.bytes_per_ingested_row",
               (CurrentRssMib() - setup_rss) * 1048576.0 /
                   static_cast<double>(rows),
               rows);
  }
  harness->Quiesce(args.trace);
  Reanalyze(*harness, args.trace, report);
  Tracer::SetEnabled(args.trace);
  harness->Restart(kRestartRepeats, kRepeatSeconds);
  Tracer::SetEnabled(false);
  if (args.trace) harness->ReplayLayers();
}

void RunAnalyze(const Args& args, Report& report) {
  std::printf("sweep: in memory, as is the publish step below\n");
  std::printf("sweep load: every headline file x {1,2,5,10}%% queries x %zu "
              "configs through RunConfigsParallel on the default pool (%zu "
              "workers)\n",
              PaperSweepConfigs().size(),
              selest::ThreadPool::DefaultThreadCount());
  std::unique_ptr<Inputs> inputs;
  std::unique_ptr<Sweep> sweep;
  std::vector<double> reference;
  TimeSetup([&]() {
    sweep.reset();
    inputs.reset();
    auto made = MakeInputs(args.seed, /*with_sweep=*/true);
    if (!made.ok()) {
      report.Error("MakeInputs", made.status().ToString());
      return;
    }
    inputs = std::make_unique<Inputs>(std::move(made).value());
    std::vector<SweepCell> cells;
    for (const FileInputs& file : inputs->files) {
      for (const selest::ExperimentSetup& setup : file.setups) {
        cells.push_back(SweepCell{&setup, PaperSweepConfigs()});
      }
    }
    sweep = std::make_unique<Sweep>(std::move(cells));
    // The serial reference every parallel pass must reproduce bit for bit,
    // each cell on the next core.
    reference = sweep->Pass(1, report, /*rotate_cores=*/true).mres;
  }, report);
  if (inputs == nullptr) return;
  std::printf("inputs digest: %016" PRIx64 "  cells: %zu\n", inputs->digest,
              sweep->num_cells());

  uint64_t compared = 0;
  uint64_t wrong = 0;
  TimePasses(*sweep, 0.0, 1, reference, &compared, &wrong,
             report);  // untimed warm-up
  MeasureAndPrintHost(report);
  PassSeries timed;
  if (!args.trace) {
    timed = TimePasses(*sweep, args.seconds, 3, reference, &compared, &wrong,
                       report);
  } else {
    timed = TimePasses(*sweep, args.seconds / 2, 2, reference, &compared,
                       &wrong, report);
    Tracer::SetEnabled(true);
    const PassSeries traced = TimePasses(*sweep, args.seconds / 2, 2,
                                         reference, &compared, &wrong, report);
    Tracer::SetEnabled(false);
    report.Set("trace.overhead_pct",
               OverheadPct(Median(traced.wall_s), Median(timed.wall_s)), 1);
    Tracer::SetEnabled(true);
    sweep->SerialReplay(CellMedians(traced), report);
    Tracer::SetEnabled(false);
  }
  report.Check("sweep.parallel_equals_serial", compared, wrong,
               "RunConfigsParallel MREs bit-equal the threads=1 set-up pass");
  // Each cell's fastest RunConfigsParallel call, summed: cell times follow
  // the cores and core speed the host grants, and the fastest is the least
  // disturbed one.
  report.Set("sweep_s", SumOfFastest(timed.cell_ms) * 1e-3,
             timed.wall_s.size());
  PrintSeries("sweep pass times (s):", timed.wall_s);
  report.Set("sweep_mre", sweep->MeanCellMre(reference), sweep->num_cells());
  report.Set("exec.effective_parallelism", Median(timed.parallelism),
             timed.parallelism.size());

  // Publish: the analyzed estimators go live on an in-memory catalog, and
  // a short read/ingest burst plus a restart exercise them. In memory
  // because durability belongs to the ingest workload: fdatasync tails
  // behind write-backs would dominate these figures and swing from run to
  // run.
  LiveConfig config;
  config.loaders = 1;
  config.rows_per_s = 20000.0;
  config.batch_rows = 50;
  config.refresh_rows = 500;
  config.workdir = args.workdir;
  std::printf("publish step:\n");
  PrintLoad(config, 1);
  LiveHarness harness(*inputs, PublishCatalog(inputs->files.size()), config,
                      report);
  harness.Start();
  const double publish_s = args.seconds;
  PhaseStats live;
  if (!args.trace) {
    live = harness.RunPhase(publish_s, 1, false);
  } else {
    live = harness.RunPhase(publish_s / 2, 1, false);
    const PhaseStats traced = harness.RunPhase(publish_s / 2, 1, true);
    report.Check("serve.served_equals_direct (traced)", traced.direct_compared,
                 traced.direct_mismatches);
    const std::vector<SpanAggregate> spans = Tracer::Aggregate();
    const SpanAggregate& est = spans[static_cast<size_t>(SpanName::kLiveEstimate)];
    report.Set("live_server.estimate_ns.p50", est.duration.Percentile(0.5),
               est.count);
    report.Set("live_server.front_ns.p50", Median(traced.front_ns),
               traced.front_ns.size());
  }
  SetLiveEndToEnd(live, report);
  harness.Quiesce(args.trace);
  Tracer::SetEnabled(args.trace);
  harness.Restart(kRestartRepeats, kRepeatSeconds);
  Tracer::SetEnabled(false);
  if (args.trace) harness.ReplayLayers();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload serve|ingest|analyze --seed N "
                 "--seconds S --trace 0|1 [--workdir DIR] [--trace-out FILE] "
                 "[--inputs-only]\n");
    return 2;
  }
  if (args.inputs_only) {
    auto inputs = MakeInputs(args.seed, args.workload == "analyze");
    if (!inputs.ok()) {
      std::fprintf(stderr, "%s\n", inputs.status().ToString().c_str());
      return 1;
    }
    std::printf("inputs digest: %016" PRIx64 "\n", inputs->digest);
    return 0;
  }
  std::error_code ec;
  std::filesystem::remove_all(args.workdir, ec);
  std::filesystem::create_directories(args.workdir, ec);

  std::printf("perfbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              args.workload.c_str(), args.seed, args.seconds, args.trace ? 1 : 0);
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  // The shared pool starts before the benchmark pins any thread: workers
  // inherit the cores their creator may run on.
  selest::ThreadPool::Default();
  Report report;
  if (args.workload == "analyze") {
    RunAnalyze(args, report);
  } else {
    RunLive(args, nproc, report);
  }
  report.Set("peak_rss_mib", PeakRssMib(), 1);
  if (args.trace) {
    PrintSelfTimes(report);
    if (!args.trace_out.empty()) {
      const uint64_t written = Tracer::WriteTsv(args.trace_out);
      std::printf("trace: %" PRIu64 " spans written to %s (%" PRIu64
                  " beyond the per-thread cap folded into the aggregates "
                  "only)\n",
                  written, args.trace_out.c_str(), Tracer::dropped_raw_spans());
    }
  }
  std::filesystem::remove_all(args.workdir, ec);
  report.Print(args.trace);
  return 0;
}
