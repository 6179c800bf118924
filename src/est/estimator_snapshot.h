// Estimator snapshots: the build-once/serve-many persistence layer.
//
// A snapshot captures an estimator's *derived* query-time state (sorted
// samples, bin edges, precomputed strip tables), so loading one skips the
// expensive parts of construction — sorting, quadrature, change-point
// detection — yet answers every query bit-identically to the original
// instance. The live server (catalog/live_server.h) writes every published
// generation back as a snapshot (catalog/snapshot_store.h), and clones a
// served estimator through a snapshot round trip before it observes
// feedback.
//
// Layering: each concrete estimator owns its payload layout
// (SerializeState / DeserializeState); this header owns the dispatch —
// a type tag prefix for nesting (the guarded chain serializes links
// recursively) and the checksummed file envelope from util/serialize.h.
// Corruption never crashes: every reader returns Status following the
// DESIGN.md §8 contract (kDataLoss for provably corrupt bytes,
// kFailedPrecondition for a future format version, kOutOfRange for
// truncation).
#ifndef SELEST_EST_ESTIMATOR_SNAPSHOT_H_
#define SELEST_EST_ESTIMATOR_SNAPSHOT_H_

#include <memory>
#include <span>
#include <vector>

#include "src/data/domain.h"
#include "src/density/histogram_density.h"
#include "src/density/kde.h"
#include "src/density/kernel.h"
#include "src/est/selectivity_estimator.h"
#include "src/util/serialize.h"
#include "src/util/status.h"

namespace selest {

// Shared field codecs used by the per-estimator payloads. The readers
// validate what the writers cannot produce (unknown enum values, decreasing
// edges) and return kInvalidArgument — corruption that slips past the CRC
// must still never construct an invalid object.
void WriteDomain(ByteWriter& writer, const Domain& domain);
StatusOr<Domain> ReadDomain(ByteReader& reader);

void WriteBinnedDensity(ByteWriter& writer, const BinnedDensity& bins);
StatusOr<BinnedDensity> ReadBinnedDensity(ByteReader& reader);

void WriteKernel(ByteWriter& writer, const Kernel& kernel);
StatusOr<Kernel> ReadKernel(ByteReader& reader);

void WriteBoundaryPolicy(ByteWriter& writer, BoundaryPolicy policy);
StatusOr<BoundaryPolicy> ReadBoundaryPolicy(ByteReader& reader);

// Appends `estimator` as a tagged record (type tag u32, then the payload)
// to `writer`. kFailedPrecondition when the estimator does not snapshot.
Status SerializeEstimator(const SelectivityEstimator& estimator,
                          ByteWriter& writer);

// Reads one tagged estimator record. `depth` guards recursion: a guarded
// chain deserializes its links at depth+1, and snapshots nested deeper
// than kMaxSnapshotDepth are rejected (kInvalidArgument) rather than
// overflowing the stack on adversarial input.
inline constexpr int kMaxSnapshotDepth = 16;
StatusOr<std::unique_ptr<SelectivityEstimator>> DeserializeEstimator(
    ByteReader& reader, int depth = 0);

// Full snapshot: the tagged record wrapped in the checksummed envelope
// (magic | version | tag | size | payload | CRC32). The envelope tag
// duplicates the record's tag so a store can route without parsing the
// payload; LoadEstimatorSnapshot cross-checks the two and reports a
// mismatch as kDataLoss (a header flip the payload CRC cannot see).
StatusOr<std::vector<uint8_t>> SnapshotEstimator(
    const SelectivityEstimator& estimator);
StatusOr<std::unique_ptr<SelectivityEstimator>> LoadEstimatorSnapshot(
    std::span<const uint8_t> bytes);

}  // namespace selest

#endif  // SELEST_EST_ESTIMATOR_SNAPSHOT_H_
