// The benchmark's own accounting: when a served page counts as done, which
// tail percentile a sample set may report, how process CPU splits between
// the server and the load generator, and the result record every workload
// fills. Kept free of sockets and threads so selftest.cc can pin each rule.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/client.h"
#include "server/site.h"

namespace h2r::bench {

// ------------------------------------------------------------------ clocks

[[nodiscard]] std::uint64_t now_ns() noexcept;

struct CpuTimes {
  double user_s = 0;
  double sys_s = 0;
  [[nodiscard]] double total() const noexcept { return user_s + sys_s; }
  CpuTimes operator-(const CpuTimes& o) const noexcept {
    return {user_s - o.user_s, sys_s - o.sys_s};
  }
  CpuTimes& operator+=(const CpuTimes& o) noexcept {
    user_s += o.user_s;
    sys_s += o.sys_s;
    return *this;
  }
};

/// getrusage(RUSAGE_SELF): every thread of the process.
[[nodiscard]] CpuTimes process_cpu() noexcept;
/// getrusage(RUSAGE_THREAD): the calling thread only.
[[nodiscard]] CpuTimes thread_cpu() noexcept;
/// ru_maxrss in MiB.
[[nodiscard]] double peak_rss_mib() noexcept;

/// Server CPU is what the process spent minus what the benchmark's own
/// generator threads spent (each measured with RUSAGE_THREAD). The main
/// thread only sleeps in join() while a serve run is timed.
struct CpuSplit {
  CpuTimes process;    ///< RUSAGE_SELF delta over the timed window
  CpuTimes generator;  ///< sum of the generator threads' deltas

  [[nodiscard]] CpuTimes server() const noexcept {
    return process - generator;
  }
  /// The load generator, not the server, may have set the pace.
  [[nodiscard]] bool generator_bound() const noexcept {
    return generator.total() > 0.5 * server().total();
  }
};

// ------------------------------------------------------------- percentiles

[[nodiscard]] double median(std::vector<double> v);

/// Linearly interpolated @p q quantile of @p v (0 when empty).
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// Nearest-rank @p q quantile of @p samples, or nullopt when fewer than
/// ten samples lie beyond it — a tail percentile is only reported when it
/// rests on at least ten observations (p99 needs 1,000 samples).
[[nodiscard]] std::optional<double> tail_quantile(std::vector<double> samples,
                                                  double q);

/// Samples ranked beyond the nearest-rank @p q quantile of @p n samples.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q) noexcept;

// Steady figures on a shared host. Other tenants slow a run down in bursts
// of a second or more, so a run is cut into slices that do the same work —
// time windows, or chunks of consecutive ops — and reports the median
// slice. Tail latency is hit hardest, so p99 takes the lower decile of the
// per-chunk p99s: interference only ever raises them.

/// One slice of a timed run: its length, the ops it completed, and the
/// CPU charged to the system under test meanwhile.
struct Window {
  double seconds = 0;
  double ops = 0;
  double cpu_s = 0;
};

/// Per-window ops per second and CPU µs per op, in window order. Windows
/// that completed no op are skipped.
[[nodiscard]] std::vector<double> window_rates(const std::vector<Window>& w);
[[nodiscard]] std::vector<double> window_cpu_us(const std::vector<Window>& w);

/// The @p q quantile of each run of @p chunk consecutive samples, in
/// order; a short last run is dropped, as is any chunk with fewer than ten
/// samples beyond its quantile.
[[nodiscard]] std::vector<double> chunk_quantiles(
    const std::vector<double>& samples, std::size_t chunk, double q);


/// Prints "# <label>: v1 v2 ..." — the per-slice figures behind a metric.
void print_series(const char* label, const std::vector<double>& values);

// ------------------------------------------------------------------ pages

/// Tracks the pages (request + every response it promised) in flight on
/// one ClientConnection. A page completes only when its own stream and
/// every promised stream have ended with exactly the resource's size in
/// DATA; an RST on any of them, a short body, or a connection that dies
/// first makes it failed.
class PageTracker {
 public:
  struct Settled {
    std::uint32_t stream = 0;
    std::uint64_t submit_ns = 0;
    std::uint64_t done_ns = 0;
    bool ok = false;
    int pushes = 0;  ///< PUSH_PROMISEs this page received
    std::string_view why;  ///< failure cause (empty when ok)
  };

  explicit PageTracker(const server::Site& site) : site_(site) {}

  /// Registers a request for @p path just sent on @p stream.
  void submit(std::uint32_t stream, std::string_view path,
              std::uint64_t now_ns);

  /// Reads the client's frames received since the last call and moves
  /// every page that has now completed or failed into @p out. Only pages
  /// that received a frame are re-examined.
  void harvest(const core::ClientConnection& client, std::uint64_t now_ns,
               std::vector<Settled>& out);

  /// The connection is gone: every page still in flight failed.
  void fail_all(std::uint64_t now_ns, std::vector<Settled>& out);

  [[nodiscard]] std::size_t in_flight() const noexcept {
    return pages_.size();
  }

 private:
  struct Want {
    std::uint32_t stream;
    std::size_t size;  ///< expected DATA octets; SIZE_MAX = unknown path
  };
  struct Page {
    std::uint64_t submit_ns = 0;
    std::vector<Want> wants;  ///< [0] is the request's own stream
  };

  [[nodiscard]] std::size_t size_of(std::string_view path) const;

  const server::Site& site_;
  std::map<std::uint32_t, Page> pages_;  ///< keyed by request stream
  /// Every stream of a page in flight → that page's request stream.
  std::unordered_map<std::uint32_t, std::uint32_t> owner_;
  std::vector<std::uint32_t> touched_;  ///< pages with new frames
  std::size_t cursor_ = 0;              ///< next unread client event
};

// ----------------------------------------------------------------- results

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports: the contract's four keys plus free-form
/// _meta fields (JSON-encoded values) and any correctness problems found.
struct WorkloadResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;
  std::map<std::string, std::string> meta;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void problem(std::string what) { problems.push_back(std::move(what)); }
  [[nodiscard]] bool correct() const noexcept { return problems.empty(); }
};

/// Arguments every workload receives.
struct RunArgs {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";  ///< where traced runs write their spans
};

[[nodiscard]] std::string json_escape(std::string_view s);
[[nodiscard]] std::string json_number(double v);

}  // namespace h2r::bench
