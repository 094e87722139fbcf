// Corpus scan workloads: a seeded 1/10 subsample of the epoch-2 synthetic
// population, scanned in closed-loop requests of kBatchSites sites with
// the ScanOptions defaults (event-loop reactor, coalesced ProbeSession,
// lockstep transport) — and, for scan_faulted, fault injection on top.
// The run cycles over the batches in passes, so every batch is timed
// several times. Every batch report is checked, outside the timed calls,
// against the sequential non-coalesced driver's report for the same sites
// and seeds.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "core/probes.h"
#include "corpus/population.h"
#include "corpus/scan.h"
#include "perfbench/replay.h"
#include "perfbench/workloads.h"
#include "tests/scan_fingerprint.h"
#include "util/rng.h"

namespace h2r::bench {

namespace {

constexpr double kScale = 10;  // 1/10 of the epoch-2 population
/// 8,200 sites in 1,025 batches: enough distinct scan requests for a p99
/// with ten beyond it.
constexpr std::size_t kBatchSites = 8;
constexpr int kWorkers = 2;
constexpr int kSetupRepeats = 7;
/// Each batch is timed once per pass and its fastest pass stands for it:
/// co-tenants only ever slow a call down. ops_per_s and cpu_us_per_op sum
/// the batches' fastest passes; p50 and p99 are taken across batches. A
/// run keeps scanning past --seconds (up to 4x) until it has this many
/// passes.
constexpr std::size_t kMinPasses = 3;
constexpr std::size_t kReplaySites = 1000;
constexpr int kHpackRequests = 8;  // ScanOptions::hpack_h

/// Per-site fault seeds are derived as corpus::SiteTask does:
/// splitmix64(fault_seed ^ fnv1a64(host)).
std::uint64_t fnv1a64(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// The families whose HPACK ratio the scan measures (Figures 4 and 5), as
/// listed in corpus/site_task.cc.
bool hpack_family(const std::string& family) {
  return family == "gse" || family == "nginx" || family == "tengine" ||
         family == "litespeed" || family == "ideawebserver" ||
         family == "tengine-aserver";
}

std::vector<corpus::Population> split(const corpus::Population& pop) {
  std::vector<corpus::Population> batches;
  for (std::size_t i = 0; i < pop.sites.size(); i += kBatchSites) {
    corpus::Population b;
    b.epoch = pop.epoch;
    b.scale = pop.scale;
    const auto end = std::min(pop.sites.size(), i + kBatchSites);
    b.sites.assign(pop.sites.begin() + static_cast<std::ptrdiff_t>(i),
                   pop.sites.begin() + static_cast<std::ptrdiff_t>(end));
    b.total_scanned = b.sites.size();
    batches.push_back(std::move(b));
  }
  return batches;
}

std::size_t outcome_sum(const corpus::ScanReport& r) {
  return r.sites_ok + r.sites_retried_ok + r.sites_truncated +
         r.sites_disconnected + r.sites_timed_out;
}

WorkloadResult run_scan(const char* name, bool faulted, const RunArgs& args) {
  WorkloadResult r;
  SpanLog spans;
  SpanLog* span_log = args.trace ? &spans : nullptr;

  std::vector<double> setups;
  corpus::Population pop;
  std::vector<corpus::Population> batches;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::uint64_t t0 = now_ns();
    pop = corpus::generate_population(corpus::Epoch::kExp2, args.seed, kScale);
    batches = split(pop);
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  if (batches.empty()) {
    r.problem("empty population");
    return r;
  }

  corpus::ScanOptions opts;
  opts.threads = kWorkers;
  opts.seed = args.seed;
  opts.fault_injection = faulted;
  std::uint64_t fault_state = args.seed ^ 0xFA017ull;
  opts.fault_seed = splitmix64(fault_state);

  // ---- timed: one scan_population call per batch, closed loop.
  std::vector<double> latency_ms;  ///< every timed call, in order
  std::vector<double> best_ms(batches.size(),
                              std::numeric_limits<double>::infinity());
  std::vector<double> best_cpu_s(batches.size(),
                                 std::numeric_limits<double>::infinity());
  std::vector<std::uint64_t> fingerprints(batches.size(), 0);
  std::vector<bool> bad(batches.size(), false);
  std::uint64_t sites = 0, exchanges = 0, faults = 0, retries = 0;
  double wall_s = 0;
  CpuTimes cpu;
  const std::uint64_t start = now_ns();
  const auto limit = static_cast<std::uint64_t>(args.seconds * 1e9);
  for (std::size_t i = 0;; ++i) {
    const std::uint64_t elapsed = now_ns() - start;
    if (elapsed >= 4 * limit ||
        (elapsed >= limit &&
         latency_ms.size() >= kMinPasses * batches.size())) {
      break;
    }
    const std::size_t b = i % batches.size();
    const CpuTimes c0 = process_cpu();
    const std::uint64_t t0 = now_ns();
    const corpus::ScanReport report = corpus::scan_population(batches[b], opts);
    const std::uint64_t t1 = now_ns();
    const CpuTimes used = process_cpu() - c0;
    cpu += used;
    wall_s += static_cast<double>(t1 - t0) / 1e9;
    latency_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    best_ms[b] = std::min(best_ms[b], latency_ms.back());
    best_cpu_s[b] = std::min(best_cpu_s[b], used.total());
    sites += batches[b].sites.size();
    exchanges += report.fault_exchanges;
    faults += report.fault_injected;
    retries += report.fault_retries;
    if (span_log != nullptr) spans.add("scan_batch", 0, t0, t1, b);

    // Checks, outside the timed call.
    if (outcome_sum(report) != batches[b].sites.size()) bad[b] = true;
    const std::uint64_t fp = fnv1a64(corpus::fingerprint(report));
    if (fingerprints[b] == 0) {
      fingerprints[b] = fp;
    } else if (fingerprints[b] != fp) {
      bad[b] = true;  // same sites, same seeds, different report
    }
  }

  // Reference: the sequential, non-coalesced driver on every scanned batch.
  corpus::ScanOptions ref_opts = opts;
  ref_opts.event_loop = false;
  ref_opts.coalesce = false;
  std::size_t mismatched = 0;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    if (fingerprints[b] == 0) continue;
    const auto ref = corpus::scan_population(batches[b], ref_opts);
    if (fnv1a64(corpus::fingerprint(ref)) != fingerprints[b]) bad[b] = true;
    if (bad[b]) ++mismatched;
  }
  r.attempted = sites;
  for (std::size_t i = 0; i < latency_ms.size(); ++i) {
    const std::size_t b = i % batches.size();
    if (bad[b]) r.failed += batches[b].sites.size();
  }
  if (mismatched != 0) {
    r.problem(std::to_string(mismatched) +
              " batches disagree with the sequential driver or miscount "
              "outcomes");
  }

  const double n = static_cast<double>(sites);
  const double cpu_us_per_site = cpu.total() * 1e6 / n;
  double best_wall_s = 0, best_cpu = 0;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    best_wall_s += best_ms[b] / 1e3;
    best_cpu += best_cpu_s[b];
  }
  const double pop_n = static_cast<double>(pop.sites.size());
  const double best_rate = pop_n / best_wall_s;
  const double best_cpu_us = best_cpu * 1e6 / pop_n;
  const auto p50 = tail_quantile(best_ms, 0.5);
  const auto p99 = tail_quantile(best_ms, 0.99);
  r.meta["workers"] = std::to_string(kWorkers);
  r.meta["batch_sites"] = std::to_string(kBatchSites);
  r.meta["population_sites"] = std::to_string(pop.sites.size());
  r.meta["scale"] = json_number(kScale);
  r.meta["latency_samples"] = std::to_string(best_ms.size());
  r.meta["batches_timed"] = std::to_string(latency_ms.size());
  r.meta["passes"] = std::to_string(latency_ms.size() / batches.size());
  r.meta["fault_seed"] = std::to_string(opts.fault_seed);

  if (latency_ms.size() < batches.size()) {
    r.problem("not one full pass over the batches");
  }
  if (!args.trace) {
    if (!p99) r.problem("too few distinct batches for p99");
    r.add("ops_per_s", best_rate, "ops/s");
    r.add("latency_p50_ms", p50.value_or(0), "ms");
    r.add("latency_p99_ms", p99.value_or(0), "ms");
    r.add("cpu_us_per_op", best_cpu_us, "us");
    r.add("setup_s", median(setups), "s");
    r.add("peak_rss_mb", peak_rss_mib(), "MiB");
    return r;
  }

  // ---- traced: per-layer attribution.
  r.meta["traced_ops_per_s"] = json_number(best_rate);

  // Wiretap on vs off over the whole population. The wiretap pins the scan
  // to per-probe connections, so both sides run uncoalesced.
  corpus::ScanOptions plain = opts;
  plain.coalesce = false;
  corpus::ScanOptions tapped = plain;
  tapped.wiretap_metrics = true;
  std::uint64_t t0 = now_ns();
  (void)corpus::scan_population(pop, plain);
  const double plain_s = static_cast<double>(now_ns() - t0) / 1e9;
  t0 = now_ns();
  const corpus::ScanReport traced = corpus::scan_population(pop, tapped);
  const double tapped_s = static_cast<double>(now_ns() - t0) / 1e9;
  const trace::MetricsRegistry& wire = traced.wire_metrics;
  const double pop_sites = static_cast<double>(pop.sites.size());

  // Probe families, in scan order, with the scan's fault configuration.
  std::vector<ProbeSite> probe_sites;
  probe_sites.reserve(pop.sites.size());
  for (const auto& spec : pop.sites) {
    ProbeSite ps{spec.to_target(), hpack_family(spec.family)};
    if (faulted) {
      std::uint64_t mix = opts.fault_seed ^ fnv1a64(spec.host);
      ps.target.faults.enabled = true;
      ps.target.faults.seed = splitmix64(mix);
      ps.target.faults.probability =
          net::fault_probability(ps.target.path.loss_rate, opts.fault_floor);
    }
    probe_sites.push_back(std::move(ps));
  }
  const ProbeFamilyTimes probes = time_probe_families(
      probe_sites, opts.retry, args.seconds / 2, span_log);

  // Engine, h2 and hpack over each responding site's HPACK-probe exchange.
  ReplayTotals replay;
  std::uint64_t replayed = 0;
  for (const auto& spec : pop.sites) {
    if (replayed >= kReplaySites) break;
    if (!spec.responds || !(spec.alpn_h2 || spec.npn_h2)) continue;
    const core::Target target = spec.to_target();
    server::Http2Server server = target.make_server();
    core::ClientConnection client(target.client_options());
    replay_connection(client, server, target.site, "/", kHpackRequests, 1,
                      true, static_cast<std::uint32_t>(++replayed), span_log,
                      replay);
  }
  const double rs = static_cast<double>(replayed);
  const auto per = [](double v, double d) { return d > 0 ? v / d : 0; };

  r.add("netio.sys_cpu_us_per_op", cpu.sys_s * 1e6 / n, "us");
  r.add("netio.rounds_per_op", 0, "count");
  r.add("netio.wire_bytes_out_per_op", 0, "count");
  r.add("netio.wire_bytes_in_per_op", 0, "count");
  r.add("netio.connect_ms", 0, "ms");
  r.add("netio.server_idle_share", 0, "ratio");
  r.add("netio.shard_skew", 0, "ratio");
  r.add("netio.user_residual_us_per_op", 0, "us");
  r.add("server.engine_us_per_op",
        per(static_cast<double>(replay.server_ns) / 1e3, rs), "us");
  r.add("server.engine_age_ratio", replay.age_ratio(), "ratio");
  r.add("server.header_cache_hit_ratio",
        per(static_cast<double>(replay.cache_hits),
            static_cast<double>(replay.cache_hits + replay.cache_misses)),
        "ratio");
  r.add("server.pushes_per_op", per(static_cast<double>(replay.pushes), rs),
        "count");
  r.add("hpack.encode_us_per_op",
        per(static_cast<double>(replay.encode_ns) / 1e3, rs), "us");
  r.add("hpack.decode_us_per_op",
        per(static_cast<double>(replay.decode_ns) / 1e3, rs), "us");
  r.add("hpack.header_octets_per_op",
        per(static_cast<double>(replay.header_octets), rs), "count");
  r.add("h2.frames_per_op", per(static_cast<double>(replay.frames), rs),
        "count");
  r.add("h2.parse_us_per_op",
        per(static_cast<double>(replay.parse_ns) / 1e3, rs), "us");
  r.add("trace.records_per_op",
        per(static_cast<double>(wire.total_frames() + wire.rounds), pop_sites),
        "count");
  r.add("trace.drops_per_op",
        per(static_cast<double>(wire.trace_drops), pop_sites), "count");
  r.add("trace.overhead_ratio", per(tapped_s, plain_s), "ratio");
  r.add("net.exchanges_per_site", static_cast<double>(exchanges) / n, "count");
  r.add("net.faults_per_site", static_cast<double>(faults) / n, "count");
  r.add("core.retries_per_site", static_cast<double>(retries) / n, "count");
  r.add("core.connections_per_site",
        per(static_cast<double>(wire.connections), pop_sites), "count");
  add_probe_metrics(r, probes);
  r.add("core.client_cpu_us_per_op",
        per(static_cast<double>(replay.client_ns) / 1e3, rs), "us");
  r.add("corpus.driver_us_per_site",
        cpu_us_per_site -
            per(probes.sum_ns() / 1e3, static_cast<double>(probes.sites)),
        "us");
  r.add("corpus.worker_busy_share", cpu.total() / (kWorkers * wall_s),
        "ratio");
  if (replay.failed != 0 || replay.analysis_error) {
    r.problem("site replay failed pages or analysis");
  }

  spans.report(name, args.out_dir, args.seed);
  return r;
}

}  // namespace

ProbeFamilyTimes time_probe_families(std::vector<ProbeSite>& sites,
                                     const core::RetryPolicy& retry,
                                     double budget_s, SpanLog* spans) {
  ProbeFamilyTimes t;
  const std::uint64_t stop =
      now_ns() + static_cast<std::uint64_t>(budget_s * 1e9);
  std::uint32_t ordinal = 0;
  for (ProbeSite& ps : sites) {
    if (now_ns() >= stop) break;
    ++ordinal;
    net::ExchangeLedger ledger;
    core::Target& target = ps.target;
    if (target.faults.enabled) target.ledger = &ledger;
    const std::uint32_t site_span = spans != nullptr ? spans->reserve() : 0;
    const std::uint64_t s0 = now_ns();
    const auto timed = [&](const char* kind, double& acc, auto&& body) {
      const std::uint64_t b0 = now_ns();
      body();
      const std::uint64_t b1 = now_ns();
      acc += static_cast<double>(b1 - b0);
      if (spans != nullptr) spans->add(kind, site_span, b0, b1, ordinal);
    };
    const auto retried = [&](auto fn) {
      return core::probe_with_retry(target, retry, fn);
    };

    bool h2 = false, responds = false;
    timed("negotiation", t.negotiation_ns, [&] {
      h2 = core::probe_negotiation(target).h2_established;
    });
    if (h2) {
      timed("settings", t.settings_ns, [&] {
        responds =
            retried([&] { return core::probe_settings(target); })
                .headers_received;
      });
    }
    if (responds) {
      timed("flow_control", t.flow_control_ns, [&] {
        (void)retried([&] { return core::probe_data_frame_control(target); });
        (void)retried([&] { return core::probe_zero_window_headers(target); });
        (void)retried(
            [&] { return core::probe_window_update_reactions(target); });
      });
      timed("priority", t.priority_ns, [&] {
        (void)retried([&] { return core::probe_priority_mechanism(target); });
        (void)retried([&] { return core::probe_self_dependency(target); });
      });
      timed("push", t.push_ns, [&] {
        (void)retried([&] { return core::probe_server_push(target); });
      });
      if (ps.hpack) {
        timed("hpack", t.hpack_ns, [&] {
          (void)retried([&] {
            return core::probe_hpack_ratio(target, kHpackRequests);
          });
        });
      }
    }
    if (spans != nullptr) {
      spans->add("site", 0, s0, now_ns(), ordinal, 0, site_span);
    }
    target.ledger = nullptr;
    ++t.sites;
  }
  return t;
}

void add_probe_metrics(WorkloadResult& r, const ProbeFamilyTimes& t) {
  const double sites = static_cast<double>(std::max<std::uint64_t>(t.sites, 1));
  r.add("core.probe.negotiation_us_per_site", t.negotiation_ns / 1e3 / sites,
        "us");
  r.add("core.probe.settings_us_per_site", t.settings_ns / 1e3 / sites, "us");
  r.add("core.probe.flow_control_us_per_site", t.flow_control_ns / 1e3 / sites,
        "us");
  r.add("core.probe.priority_us_per_site", t.priority_ns / 1e3 / sites, "us");
  r.add("core.probe.push_us_per_site", t.push_ns / 1e3 / sites, "us");
  r.add("core.probe.hpack_us_per_site", t.hpack_ns / 1e3 / sites, "us");
}

WorkloadResult run_scan_default(const RunArgs& args) {
  return run_scan("scan_default", false, args);
}

WorkloadResult run_scan_faulted(const RunArgs& args) {
  return run_scan("scan_faulted", true, args);
}

}  // namespace h2r::bench
