// In-memory span log for traced runs. Spans are recorded from the
// benchmark's own files around calls into each layer, kept in memory while
// the run measures, and written out as JSON lines when it ends. A span's
// self time is its duration minus the part of it its children cover.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace h2r::bench {

struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  const char* kind = "";     ///< static string: "op", "connection", ...
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t conn = 0;    ///< connection (or site) ordinal
  std::uint32_t stream = 0;  ///< stream id, when the span has one
};

struct SelfTime {
  std::uint64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};

/// Not thread-safe: each run records from one thread at a time.
class SpanLog {
 public:
  /// Reserves an id for a span whose end is not known yet (a parent whose
  /// children are recorded first).
  std::uint32_t reserve() noexcept { return ++next_id_; }

  /// Records a finished span; @p id = 0 allocates a fresh one. Returns it.
  std::uint32_t add(const char* kind, std::uint32_t parent,
                    std::uint64_t start_ns, std::uint64_t end_ns,
                    std::uint32_t conn = 0, std::uint32_t stream = 0,
                    std::uint32_t id = 0);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Per kind: span count, summed duration, summed self time.
  [[nodiscard]] std::map<std::string, SelfTime> self_times() const;

  /// One JSON object per line; returns false when the file can't be written.
  bool write_jsonl(const std::string& path) const;

  /// Prints per-kind self times to stdout and writes the spans to
  /// <out_dir>/spans-<workload>-seed<seed>.jsonl.
  void report(const std::string& workload, const std::string& out_dir,
              std::uint64_t seed) const;

 private:
  std::vector<Span> spans_;
  std::uint32_t next_id_ = 0;
};

}  // namespace h2r::bench
