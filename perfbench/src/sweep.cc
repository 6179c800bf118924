#include "perfbench/src/sweep.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <set>

#include "src/eval/metrics.h"
#include "src/eval/parallel_experiment.h"
#include "src/exec/thread_pool.h"
#include "src/query/ground_truth.h"
#include "src/smoothing/direct_plug_in.h"

namespace perfbench {

using selest::EstimatorConfig;
using selest::EstimatorKind;
using selest::SmoothingRule;

std::vector<LabeledConfig> PaperSweepConfigs() {
  const auto make = [](EstimatorKind kind, SmoothingRule rule) {
    EstimatorConfig config;
    config.kind = kind;
    config.smoothing = rule;
    config.boundary = selest::BoundaryPolicy::kBoundaryKernel;
    config.ash_shifts = 10;
    return config;
  };
  const SmoothingRule ns = SmoothingRule::kNormalScale;
  const SmoothingRule dpi = SmoothingRule::kDirectPlugIn;
  return {
      {"sampling", make(EstimatorKind::kSampling, ns)},
      {"uniform", make(EstimatorKind::kUniform, ns)},
      {"equi_width", make(EstimatorKind::kEquiWidth, ns)},
      {"equi_depth", make(EstimatorKind::kEquiDepth, ns)},
      {"max_diff", make(EstimatorKind::kMaxDiff, ns)},
      {"ash", make(EstimatorKind::kAverageShifted, ns)},
      {"kernel", make(EstimatorKind::kKernel, ns)},
      {"hybrid", make(EstimatorKind::kHybrid, ns)},
      {"v_optimal", make(EstimatorKind::kVOptimal, ns)},
      {"adaptive_kernel", make(EstimatorKind::kAdaptiveKernel, ns)},
      {"wavelet", make(EstimatorKind::kWavelet, ns)},
      {"equi_width_dpi2", make(EstimatorKind::kEquiWidth, dpi)},
      {"kernel_dpi2", make(EstimatorKind::kKernel, dpi)},
  };
}

size_t Sweep::num_results() const {
  size_t n = 0;
  for (const SweepCell& cell : cells_) n += cell.configs.size();
  return n;
}

PassResult Sweep::Pass(size_t threads, Report& report,
                       bool rotate_cores) const {
  std::optional<CoreRotation> rotation;
  if (rotate_cores) rotation.emplace();
  PassResult result;
  result.mres.reserve(num_results());
  selest::ParallelExecOptions options;
  options.threads = threads;
  Span pass_span(SpanName::kSweepPass, NextRequestId());
  const uint64_t cpu0 = ProcessCpuNs();
  const uint64_t t0 = NowNs();
  std::vector<EstimatorConfig> configs;
  for (const SweepCell& cell : cells_) {
    configs.clear();
    for (const LabeledConfig& c : cell.configs) configs.push_back(c.config);
    if (rotation.has_value()) rotation->Next();
    const uint64_t c0 = NowNs();
    std::vector<selest::StatusOr<selest::ErrorReport>> reports;
    {
      Span span(SpanName::kRunConfigs);
      reports = selest::RunConfigsParallel(*cell.setup, configs, options);
    }
    result.cell_ms.push_back(static_cast<double>(NowNs() - c0) * 1e-6);
    for (size_t k = 0; k < reports.size(); ++k) {
      report.Attempt();
      if (!reports[k].ok()) {
        report.Error("RunConfigsParallel(" + cell.configs[k].label + ")",
                     reports[k].status().ToString());
        result.mres.push_back(std::numeric_limits<double>::quiet_NaN());
        continue;
      }
      result.mres.push_back(reports[k]->mean_relative_error);
    }
  }
  result.wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
  result.cpu_s = static_cast<double>(ProcessCpuNs() - cpu0) * 1e-9;
  return result;
}

double Sweep::MeanCellMre(const std::vector<double>& mres) const {
  double sum = 0.0;
  size_t cells = 0;
  size_t i = 0;
  for (const SweepCell& cell : cells_) {
    double cell_sum = 0.0;
    size_t used = 0;
    for (size_t k = 0; k < cell.configs.size(); ++k, ++i) {
      if (std::isfinite(mres[i])) {
        cell_sum += mres[i];
        ++used;
      }
    }
    if (used > 0) {
      sum += cell_sum / static_cast<double>(used);
      ++cells;
    }
  }
  return cells == 0 ? 0.0 : sum / static_cast<double>(cells);
}

uint64_t Sweep::Mismatches(const std::vector<double>& mres,
                           const std::vector<double>& reference) const {
  if (mres.size() != reference.size()) return std::max<uint64_t>(1, mres.size());
  uint64_t wrong = 0;
  for (size_t i = 0; i < mres.size(); ++i) {
    if (std::memcmp(&mres[i], &reference[i], sizeof(double)) != 0) ++wrong;
  }
  return wrong;
}

void Sweep::SerialReplay(const std::vector<double>& cell_ms_median,
                         Report& report) const {
  uint64_t truth_ns = 0;
  uint64_t build_ns = 0;
  uint64_t estimate_ns = 0;
  uint64_t reduce_ns = 0;
  uint64_t queries_counted = 0;
  uint64_t estimates = 0;
  std::map<std::string, std::pair<double, uint64_t>> build_ms_by_label;
  double critical_share_sum = 0.0;
  uint64_t critical_cells = 0;
  std::vector<double> dpi_ms;

  // On a pool worker every nested ParallelFor — the batch paths inside
  // EstimateSelectivityBatch — runs serially, so phase times add up.
  {
    selest::ThreadPool pool(1);
    pool.Schedule([&]() {
      Span root(SpanName::kSweepPass, NextRequestId());
      for (size_t c = 0; c < cells_.size(); ++c) {
        const SweepCell& cell = cells_[c];
        const selest::ExperimentSetup& setup = *cell.setup;
        const selest::GroundTruth truth(*setup.data);
        std::vector<size_t> exact(setup.queries.size());
        uint64_t t = NowNs();
        {
          Span span(SpanName::kTruthCount);
          for (size_t i = 0; i < setup.queries.size(); ++i) {
            exact[i] = truth.Count(setup.queries[i]);
          }
        }
        truth_ns += NowNs() - t;
        queries_counted += setup.queries.size();
        double longest_build_ms = 0.0;
        std::vector<double> estimated(setup.queries.size());
        for (const LabeledConfig& lc : cell.configs) {
          report.Attempt();
          t = NowNs();
          selest::StatusOr<std::unique_ptr<selest::SelectivityEstimator>>
              built = [&]() {
                Span span(SpanName::kEstBuild);
                return selest::BuildEstimator(setup.sample, setup.domain(),
                                              lc.config);
              }();
          const uint64_t b = NowNs() - t;
          build_ns += b;
          if (!built.ok()) {
            report.Error("BuildEstimator(" + lc.label + ")",
                         built.status().ToString());
            continue;
          }
          const double b_ms = static_cast<double>(b) * 1e-6;
          longest_build_ms = std::max(longest_build_ms, b_ms);
          auto& slot = build_ms_by_label[lc.label];
          slot.first += b_ms;
          ++slot.second;
          t = NowNs();
          {
            Span span(SpanName::kEstBatch);
            built.value()->EstimateSelectivityBatch(setup.queries, estimated);
          }
          estimate_ns += NowNs() - t;
          estimates += setup.queries.size();
          t = NowNs();
          {
            Span span(SpanName::kReduce);
            const selest::ErrorReport r = selest::AccumulateReport(
                exact, estimated, truth.num_records());
            if (!std::isfinite(r.mean_relative_error)) {
              report.Error("AccumulateReport(" + lc.label + ")",
                           "non-finite MRE");
            }
          }
          reduce_ns += NowNs() - t;
        }
        if (c < cell_ms_median.size() && cell_ms_median[c] > 0.0) {
          critical_share_sum += longest_build_ms / cell_ms_median[c];
          ++critical_cells;
        }
      }
      // h-DPI2 bandwidth selection on each distinct file sample.
      std::set<const selest::Dataset*> seen;
      for (const SweepCell& cell : cells_) {
        if (!seen.insert(cell.setup->data).second || seen.size() > 8) continue;
        const uint64_t t = NowNs();
        Span span(SpanName::kDpi);
        const auto h = selest::TryDirectPlugInBandwidth(cell.setup->sample,
                                                        cell.setup->domain());
        report.Attempt();
        if (!h.ok()) report.Error("DirectPlugInBandwidth", h.status().ToString());
        dpi_ms.push_back(static_cast<double>(NowNs() - t) * 1e-6);
      }
    });
  }

  report.Set("eval.phase_ms.truth", static_cast<double>(truth_ns) * 1e-6,
             queries_counted);
  report.Set("eval.phase_ms.build", static_cast<double>(build_ns) * 1e-6,
             num_results());
  report.Set("eval.phase_ms.estimate", static_cast<double>(estimate_ns) * 1e-6,
             estimates);
  report.Set("eval.phase_ms.reduce", static_cast<double>(reduce_ns) * 1e-6,
             num_results());
  if (queries_counted > 0) {
    report.Set("ground_truth.count_ns",
               static_cast<double>(truth_ns) / static_cast<double>(queries_counted),
               queries_counted);
  }
  if (estimates > 0) {
    report.Set("est.batch_ns_per_query",
               static_cast<double>(estimate_ns) / static_cast<double>(estimates),
               estimates);
  }
  for (const auto& [label, slot] : build_ms_by_label) {
    report.Set("est.build_ms." + label,
               slot.first / static_cast<double>(slot.second), slot.second);
  }
  if (critical_cells > 0) {
    report.Set("eval.critical_path_share",
               critical_share_sum / static_cast<double>(critical_cells),
               critical_cells);
  }
  if (!dpi_ms.empty()) {
    double sum = 0.0;
    for (double ms : dpi_ms) sum += ms;
    report.Set("smoothing.dpi_ms", sum / static_cast<double>(dpi_ms.size()),
               dpi_ms.size());
  }
}

}  // namespace perfbench
