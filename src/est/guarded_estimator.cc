#include "src/est/guarded_estimator.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/est/estimator_snapshot.h"
#include "src/util/check.h"

namespace selest {

GuardedEstimator::GuardedEstimator(
    std::vector<std::unique_ptr<SelectivityEstimator>> chain,
    const Domain& domain)
    : chain_(std::move(chain)), domain_(domain) {
  for (const auto& link : chain_) SELEST_CHECK(link != nullptr);
}

double GuardedEstimator::EstimateSelectivity(double a, double b) const {
  // Repair the query. A NaN bound carries no information; widening it to
  // the domain edge yields the safe over-estimate. ±Inf bounds are handled
  // by the domain clamp below.
  bool repaired = false;
  if (std::isnan(a)) {
    a = domain_.lo;
    repaired = true;
  }
  if (std::isnan(b)) {
    b = domain_.hi;
    repaired = true;
  }
  if (a > b) {
    std::swap(a, b);
    repaired = true;
  }
  a = domain_.Clamp(a);
  b = domain_.Clamp(b);
  if (repaired) repaired_queries_.fetch_add(1, std::memory_order_relaxed);

  for (size_t i = 0; i < chain_.size(); ++i) {
    const double value = chain_[i]->EstimateSelectivity(a, b);
    if (!std::isfinite(value)) continue;  // poisoned link; try the next
    if (i > 0) fallback_estimates_.fetch_add(1, std::memory_order_relaxed);
    if (value < 0.0 || value > 1.0) {
      clamped_estimates_.fetch_add(1, std::memory_order_relaxed);
      return std::clamp(value, 0.0, 1.0);
    }
    return value;
  }

  // Every link returned garbage: the §3.1 uniform baseline needs only the
  // (already validated) domain.
  uniform_rescues_.fetch_add(1, std::memory_order_relaxed);
  const double width = domain_.width();
  if (!(width > 0.0)) return 0.0;
  return std::clamp((b - a) / width, 0.0, 1.0);
}

size_t GuardedEstimator::StorageBytes() const {
  size_t total = 2 * sizeof(double);  // the domain endpoints
  for (const auto& link : chain_) total += link->StorageBytes();
  return total;
}

std::string GuardedEstimator::name() const {
  // An empty chain still answers uniformly via the inline rescue.
  if (chain_.empty()) return "guarded(uniform)";
  std::string name = "guarded(";
  for (size_t i = 0; i < chain_.size(); ++i) {
    if (i > 0) name += " | ";
    name += chain_[i]->name();
  }
  name += ")";
  return name;
}

GuardedStats GuardedEstimator::stats() const {
  GuardedStats stats;
  stats.repaired_queries = repaired_queries_.load(std::memory_order_relaxed);
  stats.clamped_estimates = clamped_estimates_.load(std::memory_order_relaxed);
  stats.fallback_estimates =
      fallback_estimates_.load(std::memory_order_relaxed);
  stats.uniform_rescues = uniform_rescues_.load(std::memory_order_relaxed);
  return stats;
}

bool GuardedEstimator::SupportsFeedback() const {
  for (const auto& link : chain_) {
    if (link->SupportsFeedback()) return true;
  }
  return false;
}

Status GuardedEstimator::ObserveTrueSelectivity(const RangeQuery& query,
                                                double true_selectivity) {
  // Repair like EstimateSelectivity so the links see the same normalized
  // range the guard would have served an estimate for.
  double a = query.a;
  double b = query.b;
  if (std::isnan(a)) a = domain_.lo;
  if (std::isnan(b)) b = domain_.hi;
  if (a > b) std::swap(a, b);
  const RangeQuery repaired{domain_.Clamp(a), domain_.Clamp(b)};
  Status last = FailedPreconditionError(
      "no link of \"" + name() + "\" accepts query feedback");
  bool accepted = false;
  for (const auto& link : chain_) {
    if (!link->SupportsFeedback()) continue;
    last = link->ObserveTrueSelectivity(repaired, true_selectivity);
    if (last.ok()) accepted = true;
  }
  if (accepted) {
    feedback_observations_.fetch_add(1, std::memory_order_relaxed);
    return Status::Ok();
  }
  return last;
}

Status GuardedEstimator::SerializeState(ByteWriter& writer) const {
  WriteDomain(writer, domain_);
  writer.WriteU32(static_cast<uint32_t>(chain_.size()));
  for (const std::unique_ptr<SelectivityEstimator>& link : chain_) {
    SELEST_RETURN_IF_ERROR(SerializeEstimator(*link, writer));
  }
  return Status::Ok();
}

}  // namespace selest
