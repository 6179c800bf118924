#include "perfbench/src/inputs.h"

#include <utility>

#include "perfbench/src/common.h"
#include "src/eval/paper_data.h"
#include "src/query/workload.h"
#include "src/sample/sampler.h"
#include "src/util/random.h"

namespace perfbench {

uint64_t MixSeed(uint64_t seed, uint64_t purpose, uint64_t index) {
  // splitmix64 finalizer over the three words.
  uint64_t z = seed * 0x9e3779b97f4a7c15ull ^ (purpose << 32) ^ index;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

constexpr uint64_t kCatalogSeed = 17;

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

uint64_t DigestDoubles(const std::vector<double>& values, uint64_t hash) {
  return Fnv1a(values.data(), values.size() * sizeof(double), hash);
}

uint64_t DigestQueries(const std::vector<selest::RangeQuery>& queries,
                       uint64_t hash) {
  for (const selest::RangeQuery& q : queries) {
    hash = Fnv1a(&q.a, sizeof(q.a), hash);
    hash = Fnv1a(&q.b, sizeof(q.b), hash);
  }
  return hash;
}

selest::StatusOr<std::vector<selest::RangeQuery>> Band(
    const selest::Dataset& data, double fraction, uint64_t seed) {
  selest::WorkloadConfig config;
  config.query_fraction = fraction;
  config.num_queries = kQueriesPerBand;
  selest::Rng rng(seed);
  return selest::TryGenerateWorkload(data, config, rng);
}

}  // namespace

selest::StatusOr<Inputs> MakeInputs(uint64_t seed, bool with_sweep) {
  Inputs inputs;
  inputs.seed = seed;
  uint64_t digest = kFnvOffset;
  const std::vector<std::string> names = selest::HeadlineFileNames();
  inputs.files.reserve(names.size());
  for (size_t f = 0; f < names.size(); ++f) {
    FileInputs file;
    file.name = names[f];
    file.relation = RelationName(names[f]);
    // The Table 2 files are fixed, as in the paper (the figure benches'
    // default generator seed); the benchmark seed draws everything taken
    // from them: samples, query files, ingest rows and request streams.
    SELEST_ASSIGN_OR_RETURN(selest::Dataset data,
                            selest::MakePaperDataset(names[f]));
    file.data = std::make_unique<selest::Dataset>(std::move(data));
    const selest::Dataset& d = *file.data;

    // The live catalog's registration samples and query bands are fixed
    // too, so served_mre compares like with like across seeds; which rows
    // get ingested, in which order, and which queries readers ask vary.
    selest::Rng sample_rng(MixSeed(kCatalogSeed, 1, f));
    SELEST_ASSIGN_OR_RETURN(
        file.sample,
        selest::TrySampleWithoutReplacement(d.values(), kSampleSize,
                                            sample_rng));
    SELEST_ASSIGN_OR_RETURN(
        file.narrow, Band(d, kNarrowFraction, MixSeed(kCatalogSeed, 2, f)));
    SELEST_ASSIGN_OR_RETURN(
        file.wide, Band(d, kWideFraction, MixSeed(kCatalogSeed, 3, f)));
    selest::Rng pool_rng(MixSeed(seed, 4, f));
    file.ingest_pool.resize(kIngestPoolRows);
    for (double& v : file.ingest_pool) {
      v = d.values()[pool_rng.NextUint64(d.size())];
    }

    digest = DigestDoubles(d.values(), digest);
    digest = DigestDoubles(file.sample, digest);
    digest = DigestQueries(file.narrow, digest);
    digest = DigestQueries(file.wide, digest);
    digest = DigestDoubles(file.ingest_pool, digest);

    if (with_sweep) {
      for (double fraction : kSweepFractions) {
        selest::ProtocolConfig protocol;
        protocol.sample_size = kSampleSize;
        protocol.query_fraction = fraction;
        protocol.num_queries = 1000;
        // One protocol seed per file: the four query sizes share the
        // sample, as in the paper's per-file evaluation.
        protocol.seed = MixSeed(seed, 5, f);
        SELEST_ASSIGN_OR_RETURN(selest::ExperimentSetup setup,
                                selest::TryMakeSetup(d, protocol));
        digest = DigestDoubles(setup.sample, digest);
        digest = DigestQueries(setup.queries, digest);
        file.setups.push_back(std::move(setup));
      }
    }
    inputs.files.push_back(std::move(file));
  }
  inputs.digest = digest;
  return inputs;
}

}  // namespace perfbench
