#include "src/eval/streaming_experiment.h"

#include <cmath>
#include <utility>

#include "src/data/dataset.h"
#include "src/eval/parallel_experiment.h"
#include "src/query/streaming_ground_truth.h"
#include "src/query/workload.h"
#include "src/sample/sampler.h"

namespace selest {
namespace {

// The sampling pass doubles as the row validation pass: every later pass
// (fold builds, exact counts) sees rows this pass accepted.
StatusOr<uint64_t> SampleSource(ColumnSource& source,
                                DecayingReservoir& reservoir) {
  source.Reset();
  uint64_t rows = 0;
  for (std::span<const double> chunk = source.NextChunk(); !chunk.empty();
       chunk = source.NextChunk()) {
    for (size_t i = 0; i < chunk.size(); ++i) {
      if (!std::isfinite(chunk[i]) || !source.domain().Contains(chunk[i])) {
        return InvalidArgumentError(
            "row " + std::to_string(rows + i) + " of " + source.name() +
            " lies outside the declared domain " + source.domain().ToString());
      }
    }
    reservoir.AddBatch(chunk);
    rows += chunk.size();
  }
  return rows;
}

}  // namespace

StatusOr<StreamingExperimentSetup> TryMakeStreamingSetup(
    ColumnSource& source, const ProtocolConfig& protocol) {
  if (protocol.sample_size == 0) {
    return InvalidArgumentError("streaming setup needs sample_size >= 1");
  }
  StreamingExperimentSetup setup;
  setup.source_name = source.name();
  setup.domain = source.domain();

  DecayingReservoir reservoir(protocol.sample_size, /*decay=*/0.0,
                              protocol.seed);
  SELEST_ASSIGN_OR_RETURN(setup.num_records, SampleSource(source, reservoir));
  if (setup.num_records == 0) {
    return InvalidArgumentError("streaming setup needs a non-empty source");
  }
  setup.sample.assign(reservoir.values().begin(), reservoir.values().end());

  // Query centers are drawn from the sample, so placement follows the data
  // distribution through it (the in-memory protocol draws from the full
  // column). Empty-result rejection is deferred to the exact-count pass.
  const Dataset sample_data(setup.source_name, setup.domain, setup.sample);
  WorkloadConfig workload;
  workload.query_fraction = protocol.query_fraction;
  workload.num_queries = protocol.num_queries;
  workload.reject_empty = false;
  Rng rng(protocol.seed);
  Rng query_rng = rng.Fork();
  SELEST_ASSIGN_OR_RETURN(
      std::vector<RangeQuery> queries,
      TryGenerateWorkload(sample_data, workload, query_rng));

  SELEST_ASSIGN_OR_RETURN(std::vector<size_t> counts,
                          StreamingExactCounts(source, queries));
  setup.queries.reserve(queries.size());
  setup.exact_counts.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    if (counts[i] == 0) {
      ++setup.dropped_empty;
      continue;
    }
    setup.queries.push_back(queries[i]);
    setup.exact_counts.push_back(counts[i]);
  }
  return setup;
}

ErrorReport EvaluateOnStreamingSetup(const SelectivityEstimator& estimator,
                                     const StreamingExperimentSetup& setup) {
  std::vector<double> estimated(setup.queries.size(), 0.0);
  EstimateParallel(estimator, setup.queries, estimated);
  return AccumulateReport(setup.exact_counts, estimated,
                          static_cast<size_t>(setup.num_records));
}

StatusOr<ErrorReport> RunConfigStreaming(ColumnSource& source,
                                         const StreamingExperimentSetup& setup,
                                         const EstimatorConfig& config,
                                         const StreamingBuildOptions& options) {
  SELEST_ASSIGN_OR_RETURN(StreamingBuild build,
                          BuildEstimatorStreaming(source, config, options));
  return EvaluateOnStreamingSetup(*build.estimator, setup);
}

}  // namespace selest
