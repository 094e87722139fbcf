#include "perfbench/accounting.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sys/resource.h>

#include "h2/constants.h"

namespace h2r::bench {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

CpuTimes usage(int who) noexcept {
  rusage ru{};
  getrusage(who, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return {secs(ru.ru_utime), secs(ru.ru_stime)};
}

}  // namespace

CpuTimes process_cpu() noexcept { return usage(RUSAGE_SELF); }
CpuTimes thread_cpu() noexcept { return usage(RUSAGE_THREAD); }

double peak_rss_mib() noexcept {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo = *std::max_element(
      v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lo + hi) / 2;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

namespace {

/// 1-based nearest rank of the q quantile among n samples. The epsilon
/// keeps 0.99 * 1000 at rank 990 despite binary rounding.
std::size_t nearest_rank(std::size_t n, double q) noexcept {
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)),
                                 1, std::max<std::size_t>(n, 1));
}

}  // namespace

std::size_t samples_beyond(std::size_t n, double q) noexcept {
  return n == 0 ? 0 : n - nearest_rank(n, q);
}

std::optional<double> tail_quantile(std::vector<double> samples, double q) {
  if (samples_beyond(samples.size(), q) < 10) return std::nullopt;
  const std::size_t idx = nearest_rank(samples.size(), q) - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(idx),
                   samples.end());
  return samples[idx];
}

std::vector<double> chunk_quantiles(const std::vector<double>& samples,
                                    std::size_t chunk, double q) {
  std::vector<double> per_chunk;
  for (std::size_t at = 0; chunk > 0 && at + chunk <= samples.size();
       at += chunk) {
    const auto first = samples.begin() + static_cast<std::ptrdiff_t>(at);
    if (auto v = tail_quantile(
            {first, first + static_cast<std::ptrdiff_t>(chunk)}, q)) {
      per_chunk.push_back(*v);
    }
  }
  return per_chunk;
}


std::vector<double> window_rates(const std::vector<Window>& windows) {
  std::vector<double> v;
  for (const Window& w : windows) {
    if (w.ops > 0 && w.seconds > 0) v.push_back(w.ops / w.seconds);
  }
  return v;
}

std::vector<double> window_cpu_us(const std::vector<Window>& windows) {
  std::vector<double> v;
  for (const Window& w : windows) {
    if (w.ops > 0) v.push_back(w.cpu_s * 1e6 / w.ops);
  }
  return v;
}

void print_series(const char* label, const std::vector<double>& values) {
  std::printf("# %s:", label);
  for (const double v : values) std::printf(" %.6g", v);
  std::printf("\n");
}

// ------------------------------------------------------------- PageTracker

std::size_t PageTracker::size_of(std::string_view path) const {
  const server::Resource* r = site_.find(path);
  return r == nullptr ? std::numeric_limits<std::size_t>::max() : r->size;
}

void PageTracker::submit(std::uint32_t stream, std::string_view path,
                         std::uint64_t now_ns) {
  Page& page = pages_[stream];
  page.submit_ns = now_ns;
  page.wants.assign(1, Want{stream, size_of(path)});
  owner_[stream] = stream;
}

void PageTracker::harvest(const core::ClientConnection& client,
                          std::uint64_t now_ns, std::vector<Settled>& out) {
  const auto& events = client.events();
  for (; cursor_ < events.size(); ++cursor_) {
    const core::ReceivedFrame& ev = events[cursor_];
    const auto owner = owner_.find(ev.frame.stream_id);
    if (owner == owner_.end()) continue;
    const std::uint32_t page = owner->second;
    touched_.push_back(page);
    if (ev.frame.type() != h2::FrameType::kPushPromise) continue;
    std::string_view path;
    if (ev.headers) {
      for (const auto& field : *ev.headers) {
        if (field.name == ":path") path = field.value;
      }
    }
    const std::uint32_t promised =
        ev.frame.as<h2::PushPromisePayload>().promised_stream_id;
    pages_.at(page).wants.push_back({promised, size_of(path)});
    owner_[promised] = page;
  }

  std::sort(touched_.begin(), touched_.end());
  touched_.erase(std::unique(touched_.begin(), touched_.end()),
                 touched_.end());
  for (const std::uint32_t id : touched_) {
    const auto it = pages_.find(id);
    if (it == pages_.end()) continue;
    bool done = true;
    std::string_view why;
    for (const Want& w : it->second.wants) {
      if (client.rst_on(w.stream).has_value()) {
        why = "rst";
        break;
      }
      if (!client.stream_complete(w.stream)) {
        done = false;
      } else if (client.data_received(w.stream) != w.size) {
        why = "truncated";
        break;
      }
    }
    if (why.empty() && !done) continue;
    out.push_back({.stream = id,
                   .submit_ns = it->second.submit_ns,
                   .done_ns = now_ns,
                   .ok = why.empty(),
                   .pushes = static_cast<int>(it->second.wants.size()) - 1,
                   .why = why});
    for (const Want& w : it->second.wants) owner_.erase(w.stream);
    pages_.erase(it);
  }
  touched_.clear();
}

void PageTracker::fail_all(std::uint64_t now_ns, std::vector<Settled>& out) {
  for (const auto& [stream, page] : pages_) {
    out.push_back({.stream = stream,
                   .submit_ns = page.submit_ns,
                   .done_ns = now_ns,
                   .ok = false,
                   .pushes = static_cast<int>(page.wants.size()) - 1,
                   .why = "connection-lost"});
  }
  pages_.clear();
  owner_.clear();
}

// -------------------------------------------------------------------- json

std::string json_escape(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace h2r::bench
