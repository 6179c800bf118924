#include "src/est/uniform_estimator.h"

#include <algorithm>

#include "src/est/estimator_snapshot.h"

namespace selest {

double UniformEstimator::EstimateSelectivity(double a, double b) const {
  if (!(a <= b)) return 0.0;  // inverted range or a NaN bound
  const double lo = std::max(a, domain_.lo);
  const double hi = std::min(b, domain_.hi);
  if (lo >= hi) return 0.0;
  return (hi - lo) / domain_.width();
}

Status UniformEstimator::SerializeState(ByteWriter& writer) const {
  WriteDomain(writer, domain_);
  return Status::Ok();
}

StatusOr<UniformEstimator> UniformEstimator::DeserializeState(
    ByteReader& reader) {
  SELEST_ASSIGN_OR_RETURN(const Domain domain, ReadDomain(reader));
  return UniformEstimator(domain);
}

}  // namespace selest
