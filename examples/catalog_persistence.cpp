// Statistics catalog: analyze, persist, recover after a restart, and
// refresh on modifications — the ANALYZE / system-catalog workflow around
// the estimators, served by the live statistics server.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <string>
#include <vector>

#include "src/catalog/live_server.h"
#include "src/data/distribution.h"
#include "src/eval/report.h"
#include "src/sample/sampler.h"

namespace {

using namespace selest;

// A fresh directory of its own under the system temp dir, so concurrent
// runs never share a write-ahead log or snapshot store.
std::string MakeTempDirectory() {
  std::string path =
      (std::filesystem::temp_directory_path() / "selest_catalog_XXXXXX")
          .string();
  if (mkdtemp(path.data()) == nullptr) return "";
  return path;
}

int Fail(const char* step, const Status& status) {
  std::fprintf(stderr, "%s failed: %s\n", step, status.ToString().c_str());
  return 1;
}

int Run(const std::string& directory) {
  // Two columns of an "orders" relation with different shapes.
  Rng rng(31337);
  const Domain domain = BitDomain(20);
  const NormalDistribution amount_dist(0.5 * domain.hi, domain.width() / 8.0);
  const ExponentialDistribution delay_dist(8.0 / domain.width());
  const size_t num_records = 150000;
  const Dataset amount =
      GenerateDataset("amount", amount_dist, num_records, domain, rng);
  const Dataset delay =
      GenerateDataset("delay", delay_dist, num_records, domain, rng);

  // Every registration and ingest is logged before it is applied, and every
  // published generation is written back as a snapshot; a column
  // re-analyzes itself once 20% of its records are new.
  LiveServerOptions options;
  options.wal_directory = directory + "/wal";
  options.snapshot_directory = directory + "/snapshots";
  options.refresh_ingest_rows = num_records / 5;
  options.background_refresh = false;

  // ANALYZE: kernel statistics for the smooth column, equi-width for the
  // skewed one, each built from a 2,000-record sample.
  EstimatorConfig kernel_config;
  kernel_config.kind = EstimatorKind::kKernel;
  kernel_config.smoothing = SmoothingRule::kDirectPlugIn;
  EstimatorConfig histogram_config;
  histogram_config.kind = EstimatorKind::kEquiWidth;
  const struct {
    const char* column;
    const Dataset* data;
    const EstimatorConfig* config;
    double lo_frac, hi_frac;
  } columns[] = {{"amount", &amount, &kernel_config, 0.48, 0.52},
                 {"delay", &delay, &histogram_config, 0.00, 0.05}};

  std::vector<double> live_estimates;
  {
    LiveStatisticsServer server(options);
    Rng analyze_rng = rng.Fork();
    for (const auto& c : columns) {
      const std::vector<double> sample =
          SampleWithoutReplacement(c.data->values(), 2000, analyze_rng);
      const Status registered = server.RegisterColumn(
          "orders", c.column, domain, *c.config, sample);
      if (!registered.ok()) return Fail("analyze", registered);
    }
    std::printf("analyzed %zu columns into %s\n", server.num_columns(),
                directory.c_str());
    for (const auto& c : columns) {
      const RangeQuery q{c.lo_frac * domain.hi, c.hi_frac * domain.hi};
      auto estimate = server.Estimate("orders", c.column, q);
      if (!estimate.ok()) return Fail("estimate", estimate.status());
      live_estimates.push_back(estimate.value());
    }
  }  // Shut down: only the log and the snapshots survive.

  // Restart: a new server recovers each column from its snapshot and log.
  LiveStatisticsServer server(options);
  for (const auto& c : columns) {
    const Status recovered =
        server.RecoverColumn("orders", c.column, domain, *c.config);
    if (!recovered.ok()) return Fail("recover", recovered);
  }
  std::printf("restarted and recovered %zu columns\n\n", server.num_columns());

  // Identical estimates before and after the restart.
  TextTable table({"column", "predicate", "estimate (before restart)",
                   "estimate (recovered)", "exact"});
  for (size_t i = 0; i < std::size(columns); ++i) {
    const auto& c = columns[i];
    const RangeQuery q{c.lo_frac * domain.hi, c.hi_frac * domain.hi};
    auto recovered = server.Estimate("orders", c.column, q);
    if (!recovered.ok()) return Fail("estimate", recovered.status());
    if (recovered.value() != live_estimates[i]) {
      std::fprintf(stderr, "%s: recovered estimate differs\n", c.column);
      return 1;
    }
    const double records = static_cast<double>(num_records);
    table.AddRow({c.column,
                  "[" + FormatDouble(q.a, 0) + ", " + FormatDouble(q.b, 0) +
                      "]",
                  FormatDouble(live_estimates[i] * records, 0),
                  FormatDouble(recovered.value() * records, 0),
                  std::to_string(c.data->CountInRange(q.a, q.b))});
  }
  table.Print();

  // Modifications past the threshold re-analyze the column: the refresh
  // publishes a new generation without blocking readers.
  auto recovered_generation = server.CurrentGeneration("orders", "amount");
  if (!recovered_generation.ok()) {
    return Fail("generation", recovered_generation.status());
  }
  const Dataset inserts =
      GenerateDataset("amount", amount_dist, 45000, domain, rng);
  const Status ingested = server.Ingest("orders", "amount", inserts.values());
  if (!ingested.ok()) return Fail("ingest", ingested);
  auto stats = server.ColumnStats("orders", "amount");
  if (!stats.ok()) return Fail("stats", stats.status());
  if (stats.value().refreshes != 1) {
    std::fprintf(stderr, "amount: expected one refresh after the inserts\n");
    return 1;
  }
  std::printf(
      "\nafter 45,000 inserts (refresh threshold %zu), amount serves "
      "generation %llu (recovered as generation %llu)\n",
      options.refresh_ingest_rows,
      static_cast<unsigned long long>(stats.value().generation),
      static_cast<unsigned long long>(recovered_generation.value()->number));
  return 0;
}

}  // namespace

int main() {
  const std::string directory = MakeTempDirectory();
  if (directory.empty()) {
    std::perror("mkdtemp");
    return 1;
  }
  const int result = Run(directory);
  std::filesystem::remove_all(directory);
  return result;
}
