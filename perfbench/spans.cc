#include "perfbench/spans.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace h2r::bench {

std::uint32_t SpanLog::add(const char* kind, std::uint32_t parent,
                           std::uint64_t start_ns, std::uint64_t end_ns,
                           std::uint32_t conn, std::uint32_t stream,
                           std::uint32_t id) {
  if (id == 0) id = reserve();
  spans_.push_back({id, parent, kind, start_ns, std::max(start_ns, end_ns),
                    conn, stream});
  return id;
}

std::map<std::string, SelfTime> SpanLog::self_times() const {
  // Children grouped by parent, as [start, end) intervals.
  std::unordered_map<std::uint32_t,
                     std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      children;
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, SelfTime> out;
  for (const Span& s : spans_) {
    const std::uint64_t dur = s.end_ns - s.start_ns;
    std::uint64_t covered = 0;
    if (auto it = children.find(s.id); it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::uint64_t cur_lo = 0, cur_hi = 0;
      bool open = false;
      for (auto [lo, hi] : iv) {
        lo = std::clamp(lo, s.start_ns, s.end_ns);
        hi = std::clamp(hi, s.start_ns, s.end_ns);
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
          continue;
        }
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
      if (open) covered += cur_hi - cur_lo;
    }
    SelfTime& t = out[s.kind];
    ++t.count;
    t.total_ms += static_cast<double>(dur) / 1e6;
    t.self_ms += static_cast<double>(dur - std::min(dur, covered)) / 1e6;
  }
  return out;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"id\":%u,\"parent\":%u,\"kind\":\"%s\",\"start_ns\":%llu,"
                 "\"end_ns\":%llu,\"conn\":%u,\"stream\":%u}\n",
                 s.id, s.parent, s.kind,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), s.conn, s.stream);
  }
  return std::fclose(f) == 0;
}

void SpanLog::report(const std::string& workload,
                     const std::string& out_dir, std::uint64_t seed) const {
  std::printf("# span self times (%s, %zu spans)\n", workload.c_str(),
              spans_.size());
  std::printf("#   %-14s %10s %14s %14s\n", "kind", "count", "total_ms",
              "self_ms");
  for (const auto& [kind, t] : self_times()) {
    std::printf("#   %-14s %10llu %14.3f %14.3f\n", kind.c_str(),
                static_cast<unsigned long long>(t.count), t.total_ms,
                t.self_ms);
  }
  const std::string path = out_dir + "/spans-" + workload + "-seed" +
                           std::to_string(seed) + ".jsonl";
  if (write_jsonl(path)) {
    std::printf("# spans written to %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "could not write %s\n", path.c_str());
  }
}

}  // namespace h2r::bench
