// Seeded workload inputs. Everything the library is fed — the Table 2
// data files, registration samples, query files and ingest row pools — is
// generated here from the benchmark seed, and digested so a run can show
// which inputs it measured.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/data/dataset.h"
#include "src/eval/experiment.h"
#include "src/query/range_query.h"
#include "src/util/status.h"

namespace perfbench {

// The paper's query sizes for the analyze sweep (Figs. 7–12).
inline constexpr double kSweepFractions[] = {0.01, 0.02, 0.05, 0.10};
// Serve bands: the paper's 1% queries and a wide 25% band.
inline constexpr double kNarrowFraction = 0.01;
inline constexpr double kWideFraction = 0.25;
inline constexpr size_t kQueriesPerBand = 256;
inline constexpr size_t kSampleSize = 2000;
inline constexpr size_t kIngestPoolRows = 1u << 16;

struct FileInputs {
  std::string name;  // Table 2 name, e.g. "rr1(22)"
  std::string relation;  // identifier-safe, e.g. "rr1_22"
  std::unique_ptr<selest::Dataset> data;  // stable address for setups
  std::vector<double> sample;             // registration rows
  std::vector<selest::RangeQuery> narrow;
  std::vector<selest::RangeQuery> wide;
  // Rows loaders draw ingest batches from (uniform with replacement over
  // the file, so ingested data keeps the file's distribution).
  std::vector<double> ingest_pool;
  // analyze only: one §5.1 setup per sweep fraction, sharing `sample`.
  std::vector<selest::ExperimentSetup> setups;
};

struct Inputs {
  uint64_t seed = 0;
  std::vector<FileInputs> files;
  uint64_t digest = 0;
};

// Generates every input of a run from `seed`. `with_sweep` adds the
// analyze setups (1,000 queries at each sweep fraction per file).
selest::StatusOr<Inputs> MakeInputs(uint64_t seed, bool with_sweep);

// Deterministic stream seed for (seed, purpose, index).
uint64_t MixSeed(uint64_t seed, uint64_t purpose, uint64_t index);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
