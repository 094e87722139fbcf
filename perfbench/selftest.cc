// Tests of the benchmark's own accounting: page completion (pushed
// resources included, truncated pages failed), the ten-samples-beyond rule
// for tail percentiles, and the server/generator CPU split.
//
//   h2bench_selftest        (or: python3 perfbench/run.py --selftest)
#include <cstdio>
#include <string>
#include <vector>

#include "core/client.h"
#include "net/transport.h"
#include "perfbench/accounting.h"
#include "server/engine.h"
#include "server/profile.h"

namespace {

using namespace h2r;
using bench::PageTracker;

int g_failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,    \
                   __LINE__, #cond);                                 \
      ++g_failures;                                                  \
    }                                                                \
  } while (0)

server::Http2Server make_server(const std::string& profile) {
  return server::Http2Server(server::profile_by_key(profile),
                             server::Site::standard_testbed_site());
}

core::ClientOptions sizes_only() {
  core::ClientOptions o;
  o.retain_data_payloads = false;
  return o;
}

void test_push_page_completes_whole() {
  auto server = make_server("h2o");
  core::ClientConnection client(sizes_only());
  const auto site = server::Site::standard_testbed_site();
  PageTracker tracker(site);
  tracker.submit(client.send_request("/"), "/", 1);
  net::LockstepTransport transport;
  (void)transport.run(client, server);
  std::vector<PageTracker::Settled> out;
  tracker.harvest(client, 2, out);
  CHECK(out.size() == 1);
  CHECK(!out.empty() && out[0].ok);
  CHECK(!out.empty() && out[0].pushes == 3);
  CHECK(tracker.in_flight() == 0);
}

void test_plain_page_has_no_pushes() {
  auto server = make_server("nginx");
  core::ClientConnection client(sizes_only());
  const auto site = server::Site::standard_testbed_site();
  PageTracker tracker(site);
  tracker.submit(client.send_request("/small"), "/small", 1);
  net::LockstepTransport transport;
  (void)transport.run(client, server);
  std::vector<PageTracker::Settled> out;
  tracker.harvest(client, 2, out);
  CHECK(out.size() == 1 && out[0].ok && out[0].pushes == 0);
}

void test_truncated_page_fails() {
  // Deliver only part of the server's answer: the page must stay in
  // flight (pushed bodies incomplete), then fail when the connection dies.
  auto server = make_server("h2o");
  core::ClientConnection client(sizes_only());
  const auto site = server::Site::standard_testbed_site();
  PageTracker tracker(site);
  tracker.submit(client.send_request("/"), "/", 1);
  // Pump until the server answers with the page and its pushed bodies,
  // then hand the client only the first 2 KiB of that answer.
  Bytes answer;
  for (int round = 0; round < 8 && answer.size() <= 4096; ++round) {
    server.receive(client.take_output());
    answer = server.take_output();
    if (answer.size() <= 4096) client.receive(answer);
  }
  CHECK(answer.size() > 4096);
  if (answer.size() <= 4096) return;
  client.receive(std::span<const std::uint8_t>(answer).first(2048));
  std::vector<PageTracker::Settled> out;
  tracker.harvest(client, 2, out);
  CHECK(out.empty());
  CHECK(tracker.in_flight() == 1);
  tracker.fail_all(3, out);
  CHECK(out.size() == 1 && !out[0].ok);
}

void test_short_body_fails() {
  // A response that ends with fewer octets than the resource holds is a
  // truncated page, not a completed one.
  auto server = make_server("nginx");
  core::ClientConnection client(sizes_only());
  server::Site expected("testbed.local");
  expected.add_resource({.path = "/small", .size = 300});
  PageTracker tracker(expected);
  tracker.submit(client.send_request("/small"), "/small", 1);
  net::LockstepTransport transport;
  (void)transport.run(client, server);
  std::vector<PageTracker::Settled> out;
  tracker.harvest(client, 2, out);
  CHECK(out.size() == 1 && !out[0].ok && out[0].why == "truncated");
}

void test_tail_quantile_needs_ten_beyond() {
  std::vector<double> v;
  for (int i = 1; i <= 999; ++i) v.push_back(i);
  CHECK(bench::samples_beyond(999, 0.99) == 9);
  CHECK(!bench::tail_quantile(v, 0.99).has_value());
  v.push_back(1000);
  CHECK(bench::samples_beyond(1000, 0.99) == 10);
  const auto p99 = bench::tail_quantile(v, 0.99);
  CHECK(p99.has_value() && *p99 == 990);
  CHECK(!bench::tail_quantile({1, 2, 3}, 0.5).has_value());
  std::vector<double> twenty;
  for (int i = 1; i <= 20; ++i) twenty.push_back(i);
  CHECK(bench::tail_quantile(twenty, 0.5) == 10.0);
  // Chunked: each 1,000-sample chunk's p99, in order.
  std::vector<double> three;
  for (int c = 0; c < 3; ++c) {
    for (int i = 1; i <= 1000; ++i) three.push_back(i + 1000.0 * c);
  }
  three.push_back(1e9);  // short last chunk: dropped
  CHECK(bench::chunk_quantiles(three, 1000, 0.99) ==
        (std::vector<double>{990, 1990, 2990}));
  CHECK(bench::chunk_quantiles(v, 2000, 0.99).empty());
  CHECK(bench::quantile({990, 1990, 2990}, 0.1) == 1190);
  CHECK(bench::quantile({4, 1, 3, 2}, 0.25) == 1.75);
  CHECK(bench::median({3, 1, 2}) == 2.0);
  CHECK(bench::median({4, 1, 3, 2}) == 2.5);
}

void test_windows() {
  const std::vector<bench::Window> w{
      {.seconds = 1, .ops = 100, .cpu_s = 0.5},
      {.seconds = 1, .ops = 0, .cpu_s = 0.1},  // idle: skipped
      {.seconds = 2, .ops = 100, .cpu_s = 0.2},
      {.seconds = 1, .ops = 300, .cpu_s = 0.3}};
  CHECK(bench::window_rates(w) == (std::vector<double>{100, 50, 300}));
  CHECK(bench::window_cpu_us(w) == (std::vector<double>{5000, 2000, 1000}));
}

void test_cpu_split() {
  bench::CpuSplit split{{2.0, 1.0}, {0.5, 0.25}};
  CHECK(split.server().user_s == 1.5 && split.server().sys_s == 0.75);
  CHECK(!split.generator_bound());
  bench::CpuSplit heavy{{2.0, 1.0}, {1.5, 0.0}};
  CHECK(heavy.server().total() == 1.5);
  CHECK(heavy.generator_bound());
  // Thread CPU is a share of process CPU: spinning here raises both.
  const bench::CpuTimes p0 = bench::process_cpu(), t0 = bench::thread_cpu();
  volatile std::uint64_t sink = 0;
  for (std::uint64_t i = 0; i < 50'000'000; ++i) sink = sink + i;
  const bench::CpuTimes dp = bench::process_cpu() - p0;
  const bench::CpuTimes dt = bench::thread_cpu() - t0;
  CHECK(dt.total() > 0);
  CHECK(dp.total() + 0.01 >= dt.total());
}

}  // namespace

int main() {
  test_push_page_completes_whole();
  test_plain_page_has_no_pushes();
  test_truncated_page_fails();
  test_short_body_fails();
  test_tail_quantile_needs_ten_beyond();
  test_windows();
  test_cpu_split();
  if (g_failures != 0) {
    std::fprintf(stderr, "selftest: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("selftest: all checks passed\n");
  return 0;
}
