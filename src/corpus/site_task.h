// One in-flight scan site: the Section III probe sequence as a resumable
// coroutine (core::Task), plus everything the site owns while in flight —
// its Target, fault ledger, wiretap buffer, and sequence detector.
//
// The scan driver (corpus/scan.cc) drives each task to completion:
// advance() in a loop, servicing each park at once. Parks still mark where
// a stalled exchange or retry backoff would wait, and are booked into the
// report's park metrics.
#pragma once

#include <cstdint>
#include <optional>

#include "core/probes.h"
#include "core/session.h"
#include "core/task.h"
#include "corpus/population.h"
#include "corpus/scan.h"
#include "net/transport.h"
#include "trace/annotate.h"
#include "trace/detector.h"
#include "trace/metrics.h"
#include "trace/recorder.h"

namespace h2r::corpus {

/// Reusable per-worker scratch: one wiretap buffer and one client/engine
/// pair serve every site a scan worker scans, rewound between sites instead
/// of reallocated. The driver keeps one thread_local SiteScratch per worker
/// thread, so it also stays warm across scan_population calls made on the
/// same thread. The recorder is an unbounded binary ring (32 bytes per
/// event, no per-event heap traffic). The default
/// metrics fold runs straight off the raw records (annotate_ring with a
/// MetricsRecorder tee), so `decoded` — the offline-expansion scratch — is
/// only touched when the site's TraceEvents are actually needed (JSONL
/// export, sequence detector).
struct SiteScratch {
  trace::RingRecorder recorder;
  std::vector<trace::TraceEvent> decoded;
  trace::TagCounts tag_counts;
  // Shared metrics fold. Each site rebind()s the folder onto its family
  // registry and folds straight into it — no per-site scratch registry to
  // re-zero, no per-site merge — while the folder's per-connection scratch
  // vectors keep their capacity across the sites one worker serves.
  // site_metrics is the folder's (never-folded-into) binding between sites:
  // each site rebinds the folder back onto it when it finishes, because the
  // family registry lives in a ScanReport that may be gone before this
  // thread's next site. So the pointers never dangle: a SiteScratch is
  // never copied or moved, family registries are std::map values with
  // stable addresses, and none is referenced after its site finishes.
  trace::MetricsRegistry site_metrics;
  trace::MetricsRecorder folder{site_metrics};
  core::SessionScratch session;

  void reset() {
    recorder.clear();
    tag_counts.clear();
  }
};

class SiteTask {
 public:
  /// Wires the site up (fault stream, wiretap, detector) but runs nothing:
  /// the first advance() starts the probe sequence. @p scratch is borrowed
  /// for this site's lifetime and reset here.
  SiteTask(const SiteSpec& spec, const ScanOptions& opts, ScanReport& report,
           SiteScratch& scratch);
  SiteTask(const SiteTask&) = delete;
  SiteTask& operator=(const SiteTask&) = delete;

  /// Starts or resumes the probe sequence, servicing at most one park per
  /// call. Returns true once the site finished and folded into the report;
  /// false means the task parked.
  bool advance();

 private:
  core::Task<void> run();   ///< the probe sequence (negotiation gate + probes)
  void book_wake(int parked);
  void finish();            ///< outcome class + ledger + wiretap folds

  const SiteSpec& spec_;
  const ScanOptions& opts_;
  ScanReport& r_;
  SiteScratch& scratch_;
  core::Target target_;
  net::ExchangeLedger ledger_;
  std::optional<trace::SequenceDetector> detector_;
  core::TaskContext ctx_;
  bool started_ = false;
  bool finished_ = false;
  // Park observability (one wake per park serviced), folded into
  // ScanReport::wire_metrics at completion.
  std::uint64_t wakeups_ = 0;
  std::uint64_t parked_rounds_ = 0;
  trace::Histogram park_hist_;
  core::Task<void> task_;   ///< last: frames reference the members above
};

}  // namespace h2r::corpus
