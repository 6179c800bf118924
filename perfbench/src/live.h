// The live-server side of the benchmark: a catalog of columns served by
// one LiveStatisticsServer, closed-loop optimizer readers, closed- or
// open-loop loaders, quiesce checks, restart/recovery and the per-layer
// replays behind the server's Ingest and RecoverColumn calls.
#ifndef PERFBENCH_LIVE_H_
#define PERFBENCH_LIVE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "perfbench/src/inputs.h"
#include "perfbench/src/sweep.h"
#include "src/catalog/live_server.h"
#include "src/exec/thread_pool.h"

namespace perfbench {

struct ColumnSpec {
  size_t file = 0;         // index into Inputs::files
  std::string attribute;   // relation is the file's relation name
  std::string kind;        // est.estimate_ns.<kind> label
  LabeledConfig config;    // est.build_ms.<label> and the estimator config
  bool mergeable = false;  // refreshes by serialize-clone, not rebuild
  double popularity = 0.0; // relative read weight
};

struct LiveConfig {
  bool durable = false;        // WAL (fdatasync per append) + snapshot store
  // Loader w owns the columns c with c % loaders == w and sends a batch to
  // them in turn every batch_rows/(rows_per_s/loaders) s, until the phase
  // ends by the clock. Open loop: the batch goes at its due time and its
  // ack is timed from that due time. Closed loop: the next batch goes only
  // after the previous ack (catching up without a pause when behind
  // schedule) and each ack is timed from its send.
  bool open_loop = false;
  size_t loaders = 1;
  double rows_per_s = 0.0;     // all loaders together
  size_t batch_rows = 16;
  size_t refresh_rows = 0;     // refresh-by-volume threshold
  std::string workdir;         // wal/ and snapshots/ live below it
};

// Phase threads change cores every kWindowNs (see RunPhase), and serve
// latency is kept per window of that length. The fastest window is
// reported: the host slows single cores by 1.2-1.4x in spells of a second
// or more, so only a window on an undisturbed core measures the code. On
// ingest with two loaders (four cores) a window is one burst period of
// each loader (200 batches due 1 ms apart), so every window holds the
// same load.
inline constexpr uint64_t kWindowNs = 200'000'000;

struct WindowedHistogram {
  void Add(uint64_t at_ns, uint64_t value);
  void Merge(const WindowedHistogram& other);
  // Lowest p-quantile over the windows that hold at least ten samples
  // beyond it (and 100 in all); the whole phase when none does.
  double Percentile(double p) const;
  // Highest count per second over the windows that lie wholly within the
  // first `seconds` of the phase; the whole phase when none does.
  double BestRate(double seconds) const;
  uint64_t start_ns = 0;
  Histogram all;
  std::vector<Histogram> windows;
};

struct PhaseStats {
  double seconds = 0.0;
  WindowedHistogram read_ns;  // EstimateDetailed, per call
  uint64_t reads = 0;
  Histogram ack_ns;           // Ingest, from due time (open) or send (closed)
  Histogram lateness_ns;      // send time minus due time
  uint64_t batches = 0;       // acknowledged, including after the end
  uint64_t rows = 0;          // acknowledged by the end of the phase
  uint64_t due_batches = 0;     // scheduled before the end of the phase
  uint64_t unsent_batches = 0;  // of those, never sent: loaders behind
  uint64_t busy_ns = 0;       // time the loaders spent inside Ingest
  double writer_busy_pct = 0.0;  // busy_ns over loaders x phase length
  std::vector<double> lag_ms;  // freshness of threshold-crossing batches
  uint64_t lag_unresolved = 0;
  std::vector<double> front_ns;  // traced: serve minus direct call
  uint64_t direct_compared = 0;  // traced: served vs direct bit identity
  uint64_t direct_mismatches = 0;
};

class LiveHarness {
 public:
  LiveHarness(const Inputs& inputs, std::vector<ColumnSpec> columns,
              LiveConfig config, Report& report);
  ~LiveHarness();
  LiveHarness(const LiveHarness&) = delete;
  LiveHarness& operator=(const LiveHarness&) = delete;

  // Creates the server (with its one-worker refresh pool) and registers
  // every column from its file's registration sample.
  void Start();

  // Runs `readers` closed-loop readers and the loaders for `seconds`.
  // Readers and loaders each hold a core of their own and move to the
  // next core together every kWindowNs; the refresh worker keeps the last.
  PhaseStats RunPhase(double seconds, size_t readers, bool traced);

  // WaitForRefreshes, counters through ColumnStats, one Refresh per column,
  // served MRE over every held row, and the quiesce bit-identity check.
  // With `traced`, also the direct per-kind estimate costs and the
  // snapshot clone / store put replays.
  void Quiesce(bool traced);

  // The re-ANALYZE sweep over each column's held rows (one cell per
  // column, its own config). Valid after Quiesce.
  std::vector<SweepCell> ReanalyzeCells();

  // Drops the server and brings every column back on a fresh one:
  // RecoverColumn from a fresh copy of the crash image (snapshot + WAL
  // tail, taken by Quiesce) when durable, re-registration from the
  // registration sample otherwise. Repeated at least `min_repeats` times
  // and for at least `min_seconds`, each repeat on the next core;
  // recover_s sums each column's fastest time. Checks the last restart.
  void Restart(int min_repeats, double min_seconds);

  // Traced only, after Restart: replays the traced phase's batches through
  // the WAL, fold, reservoir and online layers, and the recovery through
  // WAL open/replay, snapshot get + fold, and rebuild.
  void ReplayLayers();

  uint64_t rows_acked() const;
  size_t num_columns() const { return columns_.size(); }

 private:
  struct Probe {
    size_t column = 0;
    uint64_t target_rows = 0;
    uint64_t ack_ns = 0;
  };

  // Server options; a durable server keeps wal/ and snapshots/ under
  // `durable_root`.
  selest::LiveServerOptions Options(const std::string& durable_root) const;
  // Replaces `to` with a copy of the wal/ and snapshots/ trees under `from`.
  void CopyDurableState(const std::string& from, const std::string& to);
  std::string CrashImage() const { return config_.workdir + "/crash"; }
  const FileInputs& FileOf(size_t column) const;
  const std::string& RelationOf(size_t column) const;
  void FillBatch(size_t column, uint64_t index, std::vector<double>& out) const;
  std::vector<uint32_t> ReaderStream(size_t reader, size_t phase) const;
  void ReaderLoop(const std::vector<uint32_t>& stream, size_t slot,
                  bool traced, const std::atomic<bool>& stop, PhaseStats& out);
  void LoaderLoop(size_t loader, size_t slot, uint64_t start_ns,
                  uint64_t end_ns, bool traced, PhaseStats& out);
  void AfterAck(size_t column, uint64_t ack_ns, std::vector<Probe>& pending);
  void PollProbes(std::vector<Probe>& pending, PhaseStats& out);
  void DrainProbes(std::vector<Probe>& pending, PhaseStats& out);
  void ReplayIngestLayers();
  void ReplayRecovery();
  selest::CatalogKey KeyOf(size_t column) const;

  const Inputs& inputs_;
  std::vector<ColumnSpec> columns_;
  LiveConfig config_;
  Report& report_;
  size_t phases_run_ = 0;

  std::unique_ptr<selest::ThreadPool> refresh_pool_;
  std::unique_ptr<selest::LiveStatisticsServer> server_;

  // Per column: batches acknowledged (each column has one loader), the
  // last threshold-trigger count seen, and the traced phase's batch range
  // plus the estimator serving when it began (fold replay baseline).
  std::vector<uint64_t> acked_;
  std::vector<uint64_t> threshold_seen_;
  std::vector<uint64_t> traced_begin_;
  std::vector<uint64_t> traced_end_;
  std::vector<std::shared_ptr<const selest::SelectivityEstimator>>
      traced_start_estimator_;
  std::vector<double> popularity_cdf_;

  // After Quiesce: every row each column holds, probe answers of the
  // generation covering all of them, and the re-ANALYZE setups.
  std::vector<std::unique_ptr<selest::Dataset>> held_;
  std::vector<std::vector<double>> pre_restart_answers_;
  std::vector<selest::ExperimentSetup> reanalyze_setups_;
  std::vector<uint64_t> writebacks_;
  double recover_s_ = 0.0;
};

}  // namespace perfbench

#endif  // PERFBENCH_LIVE_H_
