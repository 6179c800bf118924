#include "src/est/average_shifted_histogram.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "src/est/equi_width_histogram.h"

namespace selest {

StatusOr<AverageShiftedHistogram> AverageShiftedHistogram::Create(
    std::span<const double> sample, const Domain& domain, int num_bins,
    int num_shifts) {
  if (num_shifts < 1) {
    return InvalidArgumentError("ASH needs >= 1 shift");
  }
  if (num_bins < 1) {
    return InvalidArgumentError("ASH needs >= 1 bin");
  }
  const double bin_width = domain.width() / num_bins;
  std::vector<Shift> shifts;
  shifts.reserve(num_shifts);
  for (int i = 0; i < num_shifts; ++i) {
    const double shift = bin_width * i / num_shifts;
    SELEST_ASSIGN_OR_RETURN(
        const EquiWidthHistogram histogram,
        EquiWidthHistogram::Create(sample, domain, num_bins, shift));
    const BinnedDensity& bins = histogram.bins();
    shifts.push_back({bins.edges(), bins.counts(), bins.total_count(),
                      histogram.bin_width()});
  }
  return FromShifts(std::move(shifts), num_bins);
}

StatusOr<AverageShiftedHistogram> AverageShiftedHistogram::FromShifts(
    std::vector<Shift> shifts, int num_bins) {
  const size_t num_shifts = shifts.size();
  const double total = shifts.front().total_count;
  size_t num_edges = 0;
  for (const Shift& shift : shifts) {
    if (shift.total_count != total) {
      return InvalidArgumentError("ASH shifts must share one sample size");
    }
    num_edges += shift.edges.size();
  }
  // The merge: queue[front, back) holds the shifts with edges left, in
  // order of their next edge (head). A shift re-enters from the back, where
  // the round-robin interleaving of shifted runs puts it, so one step costs
  // O(1) on them (O(K) at worst).
  //
  // Per shift, `edge` and `count` point at its next edge and the count of
  // the bin that edge opens, and `mass` is its mass below the bin the sweep
  // is in, whose count is 0 before the first edge and after the last.
  struct Cursor {
    const double* edge;
    const double* last_edge;
    const double* count;
    double mass = 0.0;
    double bin_start = 0.0;
    double bin_width = 1.0;
    double bin_count = 0.0;
    double density = 0.0;  // bin_count/(K·bin_width)
  };
  std::vector<Cursor> cursor(num_shifts);
  std::vector<double> head(num_shifts);
  std::vector<uint32_t> queue(num_edges + num_shifts);
  size_t front = 0;
  size_t back = 0;
  const auto enqueue = [&](uint32_t k, double next_edge) {
    head[k] = next_edge;
    size_t at = back++;
    for (; at > front && head[queue[at - 1]] > next_edge; --at) {
      queue[at] = queue[at - 1];
    }
    queue[at] = k;
  };
  for (uint32_t k = 0; k < num_shifts; ++k) {
    const Shift& shift = shifts[k];
    cursor[k].edge = shift.edges.data();
    cursor[k].last_edge = &shift.edges.back();
    cursor[k].count = shift.counts.data();
    enqueue(k, shift.edges.front());
  }

  // `passed` is the union's mass at or below the previous union edge and
  // `running` the sum of the shifts' densities, so the sub-bin ending at
  // the next edge x holds (x − previous)·running. Every K sub-bins both are
  // recomputed exactly from the shifts, passed as (1/K) Σ_k C_k(x) with
  // C_k(x) = mass_k + n_{k,i}·((x − c_{k,i})/h_{k,i}), and the sub-bin
  // takes the difference; so rounding cannot build up along the sweep, and
  // with one shift every count is the shift's own. Atoms at the previous
  // edge wait until the sweep moves past it, then go into one zero-width
  // bin there. The union has at most as many edges as the shifts.
  const double k_shifts = static_cast<double>(num_shifts);
  double passed = 0.0;
  double running = 0.0;
  size_t since_exact = 0;
  double atom = 0.0;
  bool atom_open = false;
  std::vector<double> edges(num_edges);
  std::vector<double> counts(num_edges);
  double* edge_out = edges.data();
  double* count_out = counts.data();
  double previous = head[queue[front]];
  *edge_out++ = previous;
  while (front < back) {
    const uint32_t k = queue[front++];
    Cursor& at = cursor[k];
    const double x = head[k];
    if (x > previous) {
      if (atom_open) {
        *edge_out++ = previous;
        *count_out++ = atom / k_shifts;
        passed += atom / k_shifts;
        atom = 0.0;
        atom_open = false;
      }
      double next = passed + (x - previous) * running;
      if (++since_exact == num_shifts) {
        next = 0.0;
        running = 0.0;
        for (const Cursor& c : cursor) {
          next += c.mass + c.bin_count * ((x - c.bin_start) / c.bin_width);
          running += c.density;
        }
        next /= k_shifts;
        since_exact = 0;
      }
      // max(·, 0) drops a recomputation landing below the running sum, and
      // lets a NaN through to BinnedDensity::Create.
      *count_out++ = std::max(next - passed, 0.0);
      *edge_out++ = x;
      passed = next;
      previous = x;
    }
    // Shift k leaves its bin at x, passes its atoms there and opens the
    // next bin.
    at.mass += at.bin_count;
    for (; at.edge < at.last_edge && at.edge[1] == x; ++at.edge, ++at.count) {
      at.mass += *at.count;
      atom += *at.count;
      atom_open = true;
    }
    double entered = 0.0;
    at.bin_count = 0.0;
    if (at.edge < at.last_edge) {
      at.bin_start = x;
      at.bin_width = at.edge[1] - x;
      at.bin_count = *at.count;
      entered = at.bin_count / (at.bin_width * k_shifts);
      ++at.edge;
      ++at.count;
      enqueue(k, *at.edge);
    }
    running += entered - at.density;
    at.density = entered;
  }
  if (atom_open) {
    *edge_out++ = previous;
    *count_out++ = atom / k_shifts;
  }
  edges.resize(static_cast<size_t>(edge_out - edges.data()));
  counts.resize(static_cast<size_t>(count_out - counts.data()));
  SELEST_ASSIGN_OR_RETURN(
      BinnedDensity average,
      BinnedDensity::Create(std::move(edges), std::move(counts), total));
  return AverageShiftedHistogram(std::move(shifts), num_bins,
                                 std::move(average));
}

double AverageShiftedHistogram::EstimateSelectivity(double a, double b) const {
  return average_.Selectivity(a, b);
}

size_t AverageShiftedHistogram::StorageBytes() const {
  size_t total = 0;
  for (const Shift& shift : shifts_) {
    total += sizeof(double) * (shift.edges.size() + shift.counts.size());
  }
  return total;
}

std::string AverageShiftedHistogram::name() const {
  return "ash(" + std::to_string(num_bins_) + "x" +
         std::to_string(num_shifts()) + ")";
}

// Each shift in EquiWidthHistogram's layout (WriteBinnedDensity, then the
// bin width), so the bytes are those of the K histograms
// (est_ash_test pins the equality).
Status AverageShiftedHistogram::SerializeState(ByteWriter& writer) const {
  writer.WriteU32(static_cast<uint32_t>(num_bins_));
  writer.WriteU32(static_cast<uint32_t>(shifts_.size()));
  for (const Shift& shift : shifts_) {
    writer.WriteDoubleVector(shift.edges);
    writer.WriteDoubleVector(shift.counts);
    writer.WriteDouble(shift.total_count);
    writer.WriteDouble(shift.bin_width);
  }
  return Status::Ok();
}

StatusOr<AverageShiftedHistogram> AverageShiftedHistogram::DeserializeState(
    ByteReader& reader) {
  SELEST_ASSIGN_OR_RETURN(const uint32_t num_bins, reader.ReadU32());
  SELEST_ASSIGN_OR_RETURN(const uint32_t num_shifts, reader.ReadU32());
  constexpr uint32_t kMaxShifts = 4096;
  if (num_bins < 1 || num_shifts < 1 || num_shifts > kMaxShifts) {
    return InvalidArgumentError("ASH snapshot shape out of range");
  }
  std::vector<Shift> shifts(num_shifts);
  for (Shift& shift : shifts) {
    SELEST_ASSIGN_OR_RETURN(shift.edges, reader.ReadDoubleVector());
    SELEST_ASSIGN_OR_RETURN(shift.counts, reader.ReadDoubleVector());
    SELEST_ASSIGN_OR_RETURN(shift.total_count, reader.ReadDouble());
    SELEST_RETURN_IF_ERROR(BinnedDensity::Validate(shift.edges, shift.counts,
                                                   shift.total_count));
    SELEST_ASSIGN_OR_RETURN(shift.bin_width, reader.ReadDouble());
    if (!(shift.bin_width > 0.0) || !std::isfinite(shift.bin_width)) {
      return InvalidArgumentError(
          "equi-width snapshot bin width must be positive");
    }
  }
  return FromShifts(std::move(shifts), static_cast<int>(num_bins));
}

}  // namespace selest
