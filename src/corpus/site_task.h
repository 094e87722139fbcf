// Scanning one site: wire it up (fault stream, ledger, wiretap, detector),
// run the Section III probe sequence as plain function calls, and fold the
// outcome into the scan report.
//
// A faulted transport's stalled stretches are skipped inside
// Transport::run, and retry backoff is simulated time; both are booked as
// parks on the site's ExchangeLedger, which is where the report's park
// metrics come from.
#pragma once

#include <vector>

#include "core/session.h"
#include "corpus/population.h"
#include "corpus/scan.h"
#include "trace/annotate.h"
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

/// Scans one site into @p report: wires it up, runs the probe sequence and
/// folds the result. @p scratch is borrowed for the call and reset first.
void scan_site(const SiteSpec& spec, const ScanOptions& opts,
               ScanReport& report, SiteScratch& scratch);

}  // namespace h2r::corpus
