// The benchmark's four workloads. Each runs in one process, keeps its
// server, generator and scan threads within the machine's cores, and
// fills one WorkloadResult: end-to-end metrics for untraced runs,
// per-layer metrics (and spans) for traced ones.
#pragma once

#include <string>
#include <vector>

#include "core/probes.h"
#include "perfbench/accounting.h"
#include "perfbench/spans.h"

namespace h2r::bench {

/// Closed-loop serve workloads over real loopback sockets.
WorkloadResult run_serve_keepalive(const RunArgs& args);
WorkloadResult run_serve_push_churn(const RunArgs& args);

/// Corpus scan workloads over the epoch-2 synthetic population.
WorkloadResult run_scan_default(const RunArgs& args);
WorkloadResult run_scan_faulted(const RunArgs& args);

/// Per-family probe timings, shared by scans (over the population's
/// sites) and serves (against the served profile's testbed target).
struct ProbeFamilyTimes {
  double negotiation_ns = 0, settings_ns = 0, flow_control_ns = 0,
         priority_ns = 0, push_ns = 0, hpack_ns = 0;
  std::uint64_t sites = 0;
  [[nodiscard]] double sum_ns() const noexcept {
    return negotiation_ns + settings_ns + flow_control_ns + priority_ns +
           push_ns + hpack_ns;
  }
};

/// One probe target, and whether the scan would run the HPACK probe on it
/// (the paper's Figure 4/5 families only).
struct ProbeSite {
  core::Target target;
  bool hpack = true;
};

/// Runs the scan's probe sequence on each site in order with the public
/// probe_* functions (retrying faulted probes under @p retry), timing each
/// family, until @p budget_s seconds have passed. Spans: one "site" per
/// site with one child per family.
ProbeFamilyTimes time_probe_families(std::vector<ProbeSite>& sites,
                                     const core::RetryPolicy& retry,
                                     double budget_s, SpanLog* spans);

/// Adds the core.probe.* metrics (µs per site) to @p r.
void add_probe_metrics(WorkloadResult& r, const ProbeFamilyTimes& t);

}  // namespace h2r::bench
