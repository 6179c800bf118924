#include "src/est/selectivity_estimator.h"

#include "src/util/check.h"

namespace selest {

Status SelectivityEstimator::SerializeState(ByteWriter& /*writer*/) const {
  return FailedPreconditionError("estimator \"" + name() +
                                 "\" does not support snapshots");
}

Status SelectivityEstimator::MergeFrom(const SelectivityEstimator& /*other*/) {
  return FailedPreconditionError("estimator \"" + name() +
                                 "\" does not support merging");
}

Status SelectivityEstimator::FoldRows(std::span<const double> /*rows*/) {
  return FailedPreconditionError("estimator \"" + name() +
                                 "\" does not support incremental folds");
}

Status SelectivityEstimator::ObserveTrueSelectivity(
    const RangeQuery& /*query*/, double /*true_selectivity*/) {
  return FailedPreconditionError("estimator \"" + name() +
                                 "\" does not accept query feedback");
}

void SelectivityEstimator::EstimateSelectivityBatch(
    std::span<const RangeQuery> queries, std::span<double> out) const {
  SELEST_CHECK_EQ(queries.size(), out.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    out[i] = EstimateSelectivity(queries[i].a, queries[i].b);
  }
}

}  // namespace selest
