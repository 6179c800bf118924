// The paper's experimental protocol, out of core.
//
// experiment.h prepares (sample, query file) from a materialized Dataset;
// this module prepares the same kind of setup from a ColumnSource without
// ever holding the column: the sample comes from one reservoir pass, the
// query file is positioned on the sample (query centers follow the data
// distribution through it), and the exact counts come from the streaming
// ground truth (query/streaming_ground_truth.h). One deviation from the
// in-memory protocol is inherent: a query that turns out empty against
// the full column cannot be cheaply re-drawn mid-stream, so empty queries
// are dropped after exact counting instead of re-drawn during generation
// (ErrorReport already skips them; the setup records how many were
// dropped).
#ifndef SELEST_EVAL_STREAMING_EXPERIMENT_H_
#define SELEST_EVAL_STREAMING_EXPERIMENT_H_

#include <string>
#include <vector>

#include "src/data/column_source.h"
#include "src/est/streaming_build.h"
#include "src/eval/experiment.h"
#include "src/eval/metrics.h"
#include "src/query/range_query.h"
#include "src/util/status.h"

namespace selest {

// A prepared streaming experiment. Self-contained (no pointer into the
// source): the source is re-streamed per estimator build, not held.
struct StreamingExperimentSetup {
  std::string source_name;
  Domain domain;
  uint64_t num_records = 0;
  // The reservoir sample, in reservoir slot order.
  std::vector<double> sample;
  // Queries with a non-empty exact result, and those results.
  std::vector<RangeQuery> queries;
  std::vector<size_t> exact_counts;
  // Queries generated but dropped because their exact count was zero.
  size_t dropped_empty = 0;
};

// Prepares sample, query file and exact counts in two streaming passes
// (one for the reservoir, one for the counts). Rows must be finite and
// inside the source's domain — an mmap-backed file whose payload
// contradicts its header fails here, kInvalidArgument.
StatusOr<StreamingExperimentSetup> TryMakeStreamingSetup(
    ColumnSource& source, const ProtocolConfig& protocol);

// Scores an already-built estimator against the setup: batch estimation
// over query chunks on the shared pool (EstimateParallel), then the same
// fixed-order reduction as the in-memory path (AccumulateReport), so a
// given (estimator, setup) pair scores bit-identically however the
// estimator was built.
ErrorReport EvaluateOnStreamingSetup(const SelectivityEstimator& estimator,
                                     const StreamingExperimentSetup& setup);

// Builds `config` from the source via BuildEstimatorStreaming and scores
// it against the setup. The build options' sample size and seed default
// to the protocol values used for the setup, so estimators see the same
// sample the setup holds.
StatusOr<ErrorReport> RunConfigStreaming(ColumnSource& source,
                                         const StreamingExperimentSetup& setup,
                                         const EstimatorConfig& config,
                                         const StreamingBuildOptions& options);

}  // namespace selest

#endif  // SELEST_EVAL_STREAMING_EXPERIMENT_H_
