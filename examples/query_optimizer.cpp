// Query-optimizer scenario: choosing access paths with estimated
// selectivities.
//
// The original motivation for selectivity estimation (System R [12]): an
// optimizer picks an index scan when a predicate is selective enough and a
// full scan otherwise. This example builds a two-column relation, estimates
// the selectivity of conjunctive range predicates per column, and shows how
// the estimator's quality changes the plan choice.
#include <cstdio>
#include <memory>

#include "src/data/dataset.h"
#include "src/data/distribution.h"
#include "src/data/relation.h"
#include "src/est/estimator_factory.h"
#include "src/eval/report.h"
#include "src/sample/sampler.h"
#include "src/util/random.h"

namespace {

// Plan costs in abstract page fetches: a full scan reads every record
// sequentially; an index scan pays a per-match random-access penalty.
constexpr double kSequentialCostPerRecord = 1.0;
constexpr double kRandomCostPerMatch = 40.0;

const char* ChoosePlan(double estimated_matches, double num_records) {
  const double full_scan = kSequentialCostPerRecord * num_records;
  const double index_scan = kRandomCostPerMatch * estimated_matches;
  return index_scan < full_scan ? "index scan" : "full scan";
}

}  // namespace

int main() {
  using namespace selest;

  Rng rng(7);
  const Domain domain = BitDomain(20);
  // "orders" relation: `amount` is exponentially skewed (many small
  // orders), `ship_date` is roughly uniform over the year.
  const ExponentialDistribution amount_dist(8.0 / domain.width());
  const UniformDistribution date_dist(domain.lo, domain.hi);
  auto amount = std::make_shared<Dataset>(
      GenerateDataset("amount", amount_dist, 200000, domain, rng));
  auto ship_date = std::make_shared<Dataset>(
      GenerateDataset("ship_date", date_dist, 200000, domain, rng));
  auto relation = Relation::Create("orders", {amount, ship_date});
  if (!relation.ok()) {
    std::fprintf(stderr, "%s\n", relation.status().ToString().c_str());
    return 1;
  }
  const double n = static_cast<double>(relation->num_records());
  std::printf("relation orders: %zu records\n\n", relation->num_records());

  // Statistics construction: one kernel estimator per column, built from a
  // 2,000-record sample each.
  Rng sampler = rng.Fork();
  EstimatorConfig config;
  config.kind = EstimatorKind::kKernel;

  TextTable table({"predicate", "estimated matches", "exact matches",
                   "plan (estimated)", "plan (exact)"});
  struct Predicate {
    const char* label;
    const char* column;
    double lo_fraction;
    double hi_fraction;
  };
  const Predicate predicates[] = {
      {"amount in top half", "amount", 0.50, 1.00},
      {"amount in [0.5%, 1.5%] band", "amount", 0.005, 0.015},
      {"ship_date in one week (~2%)", "ship_date", 0.40, 0.42},
      {"ship_date in one quarter", "ship_date", 0.25, 0.50},
  };
  for (const Predicate& p : predicates) {
    auto column = relation->Column(p.column);
    if (!column.ok()) return 1;
    const Dataset& data = **column;
    const std::vector<double> sample =
        SampleWithoutReplacement(data.values(), 2000, sampler);
    auto estimator = BuildEstimator(sample, data.domain(), config);
    if (!estimator.ok()) return 1;
    const double a = data.domain().lo + p.lo_fraction * data.domain().width();
    const double b = data.domain().lo + p.hi_fraction * data.domain().width();
    const double estimated =
        (*estimator)->EstimateSelectivity(a, b) * n;
    const auto exact = relation->CountRange(p.column, a, b);
    if (!exact.ok()) return 1;
    table.AddRow({p.label, FormatDouble(estimated, 0),
                  std::to_string(exact.value()), ChoosePlan(estimated, n),
                  ChoosePlan(static_cast<double>(exact.value()), n)});
  }
  table.Print();
  std::printf(
      "\nindex scan is chosen when %.0f * matches < %.0f * records;\n"
      "a good estimator makes the estimated plan match the exact plan.\n",
      kRandomCostPerMatch, kSequentialCostPerRecord);
  return 0;
}
