// Closed-loop serve workloads: netio::ShardedServe wired the way h2serve
// runs it (always-on 65,536-record idle ring, header-block cache on),
// driven over loopback by the benchmark's own generator. Each generator
// connection keeps a fixed number of pages in flight and refills as pages
// complete, like h2load or a browser's page loads. A page is the request
// plus every response it promised, and completes only when all of them
// ended with their full bodies (PageTracker).
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <poll.h>
#include <string>
#include <sys/epoll.h>
#include <thread>
#include <vector>

#include "net/transport.h"
#include "netio/event_loop.h"
#include "netio/serve_shard.h"
#include "netio/socket.h"
#include "netio/socket_transport.h"
#include "perfbench/replay.h"
#include "perfbench/spans.h"
#include "perfbench/workloads.h"
#include "server/profile.h"
#include "trace/recorder.h"
#include "util/rng.h"

namespace h2r::bench {

namespace {

constexpr std::size_t kIdleRingRecords = 65536;  // h2serve's idle ring
constexpr std::size_t kTapeRecords = 4096;       // ServeOptions default
constexpr net::ExchangeLimits kLoadLimits{.max_rounds = 1 << 30,
                                          .max_bytes = 0};
constexpr std::uint64_t kDrainLimitNs = 10'000'000'000ull;
constexpr int kSetupRepeats = 15;
/// Stationary runs are sliced into windows of this length for rates and
/// CPU per op, and into chunks of this many consecutive pages for latency.
constexpr std::uint64_t kWindowNs = 250'000'000;
constexpr std::size_t kLatencyChunk = 2000;
/// Push-churn engine replay covers whole connections up to this many pages.
constexpr int kChurnReplayPages = 4000;
/// Pages whose bytes go through the h2/hpack capture analysis.
constexpr std::uint64_t kAnalysedPages = 2000;
constexpr int kServeProbeRepeats = 100;

struct ServeShape {
  const char* name;
  const char* profile;
  const char* path;
  unsigned shards;
  int connections;
  int streams;
  /// Pages per connection drawn uniformly from [min_pages, max_pages];
  /// 0 = connections stay open for the whole run.
  int min_pages;
  int max_pages;
  /// Connections stay young, so any stretch of the run does the same work
  /// per page: report medians over windows and latency chunks (p99: the
  /// lower decile of the chunks').
  /// Otherwise connection age, and with it the cost per page, grows all
  /// run long; no two windows are alike and run-wide figures are reported.
  bool stationary;
};

constexpr ServeShape kKeepalive{"serve_keepalive", "nginx", "/small", 1, 4, 8,
                                0, 0, false};
constexpr ServeShape kPushChurn{"serve_push_churn", "h2o", "/", 2, 4, 8, 16,
                                48, true};

class Generator;

struct GenConn final : netio::IoHandler {
  GenConn(Generator& gen, netio::Fd fd, int target, std::uint32_t ordinal,
          const server::Site& site, std::uint64_t connect_ns)
      : gen(gen),
        transport(std::move(fd)),
        client(load_client_options()),
        client_ref(client),
        tracker(site),
        target(target),
        ordinal(ordinal),
        connect_ns(connect_ns) {
    open_load_windows(client);
  }
  GenConn(const GenConn&) = delete;  // the reactor holds its address
  GenConn& operator=(const GenConn&) = delete;

  void on_ready(std::uint32_t events) override;

  Generator& gen;
  netio::SocketTransport transport;
  core::ClientConnection client;
  net::EndpointRef<core::ClientConnection> client_ref;
  std::optional<net::ExchangeDriver> driver;
  PageTracker tracker;
  int target;  ///< pages to serve on this connection; 0 = unbounded
  int issued = 0;
  int completed = 0;
  std::uint32_t ordinal;
  std::uint32_t span_id = 0;
  std::uint64_t connect_ns;
  std::uint64_t settings_ns = 0;
  std::uint32_t interest = EPOLLOUT;
  bool connecting = true;
  bool closed = false;  ///< GOAWAY queued
  bool done = false;
};

/// The closed-loop load generator. Runs on its own thread; every number it
/// keeps is read by the main thread only after that thread joined.
class Generator {
 public:
  Generator(const ServeShape& shape, std::uint16_t port, std::uint64_t seed,
            SpanLog* spans)
      : shape_(shape),
        port_(port),
        rng_(seed),
        site_(server::Site::standard_testbed_site()),
        spans_(spans) {}

  /// Serves pages until @p seconds have passed, then lets in-flight pages
  /// finish and closes every connection with GOAWAY.
  void run(netio::Fd first, double seconds);
  void drive(GenConn& cn);

  // Results.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t completed_total = 0;
  std::uint64_t completed_window = 0;  ///< completed before the deadline
  std::uint64_t pushes = 0;            ///< PUSH_PROMISEs on completed pages
  std::uint64_t short_pushed = 0;      ///< completed pages missing a push
  std::uint64_t connections_opened = 0;
  std::vector<double> latency_ms;  ///< completed pages, completion order
  std::vector<double> connect_ms;  ///< connect → server SETTINGS
  std::vector<int> pages_per_connection;
  std::map<std::string, std::uint64_t> failures;
  CpuTimes generator_cpu;  ///< this thread, over the timed window
  CpuTimes process_cpu_window;
  double window_s = 0;
  double drain_s = 0;  ///< deadline → last connection closed
  std::vector<Window> windows;  ///< kWindowNs slices, server CPU only

 private:
  void open_connection(netio::Fd fd, std::uint64_t connect_ns);
  bool harvest(GenConn& cn);
  void book(GenConn& cn);
  void settle(GenConn& cn);
  void retire(GenConn& cn);
  void update_interest(GenConn& cn);
  int draw_target() {
    if (shape_.max_pages == 0) return 0;
    const auto span =
        static_cast<std::uint64_t>(shape_.max_pages - shape_.min_pages + 1);
    return shape_.min_pages + static_cast<int>(rng_.next_below(span));
  }

  const ServeShape& shape_;
  std::uint16_t port_;
  Rng rng_;
  server::Site site_;
  SpanLog* spans_;
  netio::EpollLoop loop_;
  std::vector<std::unique_ptr<GenConn>> live_conns_;
  std::vector<std::unique_ptr<GenConn>> retired_;
  std::vector<PageTracker::Settled> settled_;
  std::size_t push_list_size_ = 0;
  std::uint64_t deadline_ns_ = 0;
  std::uint32_t next_ordinal_ = 0;
  int live_ = 0;
  bool draining_ = false;
};

void GenConn::on_ready(std::uint32_t events) {
  (void)events;
  gen.drive(*this);
}

void Generator::open_connection(netio::Fd fd, std::uint64_t connect_ns) {
  auto cn = std::make_unique<GenConn>(*this, std::move(fd), draw_target(),
                                      ++next_ordinal_, site_, connect_ns);
  if (spans_ != nullptr) cn->span_id = spans_->reserve();
  if (!loop_.add(cn->transport.fd(), cn.get(), EPOLLOUT).ok()) {
    ++failures["epoll-add"];
    return;
  }
  ++connections_opened;
  ++live_;
  live_conns_.push_back(std::move(cn));
}

void Generator::update_interest(GenConn& cn) {
  const std::uint32_t want =
      cn.connecting ? EPOLLOUT
                    : EPOLLIN | (cn.transport.wants_write() ? EPOLLOUT : 0u);
  if (want == cn.interest) return;
  if (loop_.modify(cn.transport.fd(), want).ok()) cn.interest = want;
}

void Generator::book(GenConn& cn) {
  for (const auto& page : settled_) {
    if (!page.ok) {
      ++failed;
      ++failures[std::string(page.why)];
      continue;
    }
    ++completed_total;
    ++cn.completed;
    if (page.done_ns <= deadline_ns_) ++completed_window;
    pushes += static_cast<std::uint64_t>(page.pushes);
    if (static_cast<std::size_t>(page.pushes) < push_list_size_) {
      ++short_pushed;
    }
    latency_ms.push_back(static_cast<double>(page.done_ns - page.submit_ns) /
                         1e6);
    if (spans_ != nullptr) {
      spans_->add("op", cn.span_id, page.submit_ns, page.done_ns, cn.ordinal,
                  page.stream);
    }
  }
  settled_.clear();
}

bool Generator::harvest(GenConn& cn) {
  const std::uint64_t now = now_ns();
  if (cn.settings_ns == 0 && cn.client.server_settings_received()) {
    cn.settings_ns = now;
    connect_ms.push_back(static_cast<double>(now - cn.connect_ns) / 1e6);
  }
  cn.tracker.harvest(cn.client, now, settled_);
  book(cn);
  bool queued = false;
  const std::string path = shape_.path;
  while (cn.client.alive() && !draining_ && !cn.closed &&
         (cn.target == 0 || cn.issued < cn.target) &&
         cn.tracker.in_flight() < static_cast<std::size_t>(shape_.streams)) {
    cn.tracker.submit(cn.client.send_request(path), path, now_ns());
    ++cn.issued;
    ++attempted;
    queued = true;
  }
  if (cn.client.alive() && !cn.closed && cn.tracker.in_flight() == 0 &&
      (draining_ || (cn.target > 0 && cn.issued >= cn.target))) {
    cn.client.close();
    cn.closed = true;
    queued = true;
  }
  return queued;
}

void Generator::retire(GenConn& cn) {
  if (cn.done) return;
  cn.done = true;
  loop_.remove(cn.transport.fd());
  cn.transport.close();
  --live_;
  pages_per_connection.push_back(cn.completed);
  const std::uint64_t now = now_ns();
  if (spans_ != nullptr) {
    spans_->add("connection", 0, cn.connect_ns, now, cn.ordinal, 0,
                cn.span_id);
    if (cn.settings_ns != 0) {
      spans_->add("setup", cn.span_id, cn.connect_ns, cn.settings_ns,
                  cn.ordinal);
    }
  }
  // The object may be mid-dispatch: free it after the poll pass.
  for (auto& slot : live_conns_) {
    if (slot.get() == &cn) {
      retired_.push_back(std::move(slot));
      slot = std::move(live_conns_.back());
      live_conns_.pop_back();
      break;
    }
  }
  if (!draining_) {
    auto fd = netio::connect_tcp("127.0.0.1", port_);
    if (fd.ok()) {
      open_connection(std::move(fd).value(), now_ns());
    } else {
      ++failures["connect"];
    }
  }
}

void Generator::settle(GenConn& cn) {
  cn.tracker.fail_all(now_ns(), settled_);
  book(cn);
  const net::ExchangeResult& r = cn.driver->result();
  if (r.outcome != net::ExchangeOutcome::kQuiescent || !cn.closed ||
      cn.client.terminal().state != core::ClientTerminal::kQuiescent) {
    ++failures[cn.transport.failed()
                   ? "conn:" + netio::errno_key(cn.transport.last_errno())
                   : "conn:" + std::string(net::to_string(r.outcome))];
  }
  retire(cn);
}

void Generator::drive(GenConn& cn) {
  if (cn.done) return;
  if (cn.connecting) {
    if (const int err = netio::pending_socket_error(cn.transport.fd());
        err != 0) {
      ++failures["connect:" + netio::errno_key(err)];
      retire(cn);
      return;
    }
    cn.connecting = false;
    cn.driver.emplace(cn.transport, cn.client_ref, cn.transport.wire(),
                      kLoadLimits);
  }
  while (true) {
    if (cn.driver->state() == net::ExchangeDriver::State::kParked) {
      cn.driver->unpark();
    }
    if (cn.driver->pump() == net::ExchangeDriver::State::kDone) {
      settle(cn);
      return;
    }
    if (!harvest(cn)) break;
  }
  update_interest(cn);
}

void Generator::run(netio::Fd first, double seconds) {
  if (const auto* list = site_.push_list(shape_.path);
      list != nullptr &&
      server::profile_by_key(shape_.profile).supports_push) {
    push_list_size_ = list->size();
  }
  const CpuTimes gen0 = thread_cpu();
  const CpuTimes proc0 = process_cpu();
  const std::uint64_t start = now_ns();
  std::uint64_t win_start = start;
  std::uint64_t win_ops = 0;
  CpuTimes win_gen = gen0, win_proc = proc0;
  const auto close_window = [&](std::uint64_t now) {
    const CpuTimes gen = thread_cpu(), proc = process_cpu();
    windows.push_back(
        {.seconds = static_cast<double>(now - win_start) / 1e9,
         .ops = static_cast<double>(completed_window - win_ops),
         .cpu_s = ((proc - win_proc) - (gen - win_gen)).total()});
    win_start = now;
    win_ops = completed_window;
    win_gen = gen;
    win_proc = proc;
  };
  deadline_ns_ = start + static_cast<std::uint64_t>(seconds * 1e9);
  open_connection(std::move(first), start);
  for (int i = 1; i < shape_.connections; ++i) {
    auto fd = netio::connect_tcp("127.0.0.1", port_);
    if (!fd.ok()) {
      ++failures["connect"];
      continue;
    }
    open_connection(std::move(fd).value(), now_ns());
  }

  while (live_ > 0) {
    const std::uint64_t now = now_ns();
    if (!draining_ && now >= win_start + kWindowNs) close_window(now);
    if (!draining_ && now >= deadline_ns_) {
      if (now > win_start) close_window(now);
      draining_ = true;
      generator_cpu = thread_cpu() - gen0;
      process_cpu_window = process_cpu() - proc0;
      window_s = static_cast<double>(now - start) / 1e9;
      // Idle connections close now; busy ones after their last page.
      std::vector<GenConn*> open;
      for (auto& cn : live_conns_) open.push_back(cn.get());
      for (GenConn* cn : open) drive(*cn);
      continue;
    }
    if (draining_ && now >= deadline_ns_ + kDrainLimitNs) {
      std::vector<GenConn*> open;
      for (auto& cn : live_conns_) open.push_back(cn.get());
      for (GenConn* cn : open) {
        cn->tracker.fail_all(now, settled_);
        book(*cn);
        ++failures["drain-timeout"];
        retire(*cn);
      }
      break;
    }
    const std::uint64_t wake = std::min(deadline_ns_, win_start + kWindowNs);
    const int timeout =
        draining_ || wake <= now
            ? 20
            : static_cast<int>((wake - now) / 1'000'000 + 1);
    if (!loop_.poll(timeout).ok()) {
      ++failures["reactor"];
      break;
    }
    retired_.clear();
  }
  retired_.clear();
  drain_s = static_cast<double>(now_ns() - deadline_ns_) / 1e9;
}

// ----------------------------------------------------------------- server

/// A running ShardedServe with the benchmark-owned ring and the thread
/// that runs it; destruction shuts it down and joins.
struct Server {
  Server() = default;
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  ~Server() { stop(); }

  std::unique_ptr<trace::RingRecorder> ring;
  std::unique_ptr<netio::ShardedServe> serve;
  Status status;
  std::uint64_t run_start_ns = 0, run_end_ns = 0;
  std::thread thread;  // last: it uses the members above

  void stop() {
    if (!thread.joinable()) return;
    serve->request_shutdown();
    thread.join();
  }
};

/// Creates the listener, starts its shards and connects the first client
/// socket. Returns the seconds that took (set-up time), or a negative
/// value on failure.
double start_server(const ServeShape& shape, Server& s, netio::Fd& first) {
  const std::uint64_t t0 = now_ns();
  s.ring = std::make_unique<trace::RingRecorder>(kIdleRingRecords);
  netio::ShardedServeOptions opts;
  opts.base.profile_key = shape.profile;
  opts.base.recorder = s.ring.get();
  opts.base.tape_capacity = kTapeRecords;
  opts.base.header_block_cache = true;
  opts.base.max_connections = 64;
  opts.shards = shape.shards;
  auto created = netio::ShardedServe::create(opts);
  if (!created.ok()) {
    std::fprintf(stderr, "serve: %s\n",
                 std::string(created.status().message()).c_str());
    return -1;
  }
  s.serve = std::move(created).value();
  s.thread = std::thread([&s] {
    s.run_start_ns = now_ns();
    try {
      s.status = s.serve->run();
    } catch (const std::exception& e) {
      s.status = InternalError(std::string("serve threw: ") + e.what());
    }
    s.run_end_ns = now_ns();
  });
  auto fd = netio::connect_tcp("127.0.0.1", s.serve->port());
  if (!fd.ok()) return -1;
  pollfd p{fd.value().get(), POLLOUT, 0};
  int r;
  do {
    r = ::poll(&p, 1, 5000);
  } while (r < 0 && errno == EINTR);
  if (r != 1 || netio::pending_socket_error(fd.value().get()) != 0) return -1;
  first = std::move(fd).value();
  return static_cast<double>(now_ns() - t0) / 1e9;
}

WorkloadResult run_serve(const ServeShape& shape, const RunArgs& args) {
  WorkloadResult r;
  SpanLog spans;
  SpanLog* span_log = args.trace ? &spans : nullptr;

  // Set-up, several times: the last one serves the run.
  std::vector<double> setups;
  std::unique_ptr<Server> owned;
  netio::Fd first;
  for (int i = 0; i < kSetupRepeats; ++i) {
    first = netio::Fd();
    owned = std::make_unique<Server>();
    const double s = start_server(shape, *owned, first);
    if (s < 0) {
      r.problem("server set-up failed");
      return r;
    }
    setups.push_back(s);
  }
  Server& server = *owned;

  Generator gen(shape, server.serve->port(), args.seed, span_log);
  std::thread gen_thread([&] {
    try {
      gen.run(std::move(first), args.seconds);
    } catch (const std::exception& e) {
      ++gen.failures[std::string("generator threw: ") + e.what()];
    }
  });
  gen_thread.join();
  server.stop();
  if (span_log != nullptr) {
    spans.add("server_run", 0, server.run_start_ns, server.run_end_ns);
  }
  const netio::ServeStats& stats = server.serve->stats();

  r.attempted = gen.attempted;
  r.failed = gen.failed;
  CpuSplit cpu{gen.process_cpu_window, gen.generator_cpu};
  const double window_ops = static_cast<double>(gen.completed_window);
  const double total_ops = static_cast<double>(gen.completed_total);

  // Correctness.
  if (!server.status.ok()) {
    r.problem("serve loop: " + std::string(server.status.message()));
  }
  if (gen.failed != 0 || !gen.failures.empty()) {
    std::string what = "generator failures:";
    for (const auto& [k, n] : gen.failures) {
      what += " " + k + "=" + std::to_string(n);
    }
    r.problem(what);
  }
  if (stats.served_clean != gen.connections_opened ||
      stats.disconnected != 0 || stats.drain_expired != 0 ||
      stats.accept_refused != 0 || !stats.errors.empty()) {
    r.problem("server-side errors: " + stats.json());
  }
  if (gen.short_pushed != 0) {
    r.problem(std::to_string(gen.short_pushed) +
              " completed pages lacked part of the push list");
  }
  if (gen.completed_window == 0) r.problem("no page completed");

  const std::vector<double> chunk_p50 =
      chunk_quantiles(gen.latency_ms, kLatencyChunk, 0.5);
  const std::vector<double> chunk_p99 =
      chunk_quantiles(gen.latency_ms, kLatencyChunk, 0.99);
  std::optional<double> p50, p99;
  if (!shape.stationary) {
    p50 = tail_quantile(gen.latency_ms, 0.5);
    p99 = tail_quantile(gen.latency_ms, 0.99);
  } else if (!chunk_p99.empty()) {
    p50 = median(chunk_p50);
    p99 = quantile(chunk_p99, 0.1);
  }
  const double ops_per_s = shape.stationary ? median(window_rates(gen.windows))
                                            : window_ops / gen.window_s;
  r.meta["shards"] = std::to_string(shape.shards);
  r.meta["connections"] = std::to_string(shape.connections);
  r.meta["streams_per_connection"] = std::to_string(shape.streams);
  r.meta["profile"] = json_escape(shape.profile);
  r.meta["path"] = json_escape(shape.path);
  r.meta["latency_samples"] = std::to_string(gen.latency_ms.size());
  r.meta["latency_chunk"] = std::to_string(kLatencyChunk);
  r.meta["windows"] = std::to_string(gen.windows.size());
  r.meta["generator_bound"] = cpu.generator_bound() ? "true" : "false";
  r.meta["generator_cpu_s"] = json_number(cpu.generator.total());
  r.meta["server_cpu_s"] = json_number(cpu.server().total());
  r.meta["connections_opened"] = std::to_string(gen.connections_opened);
  r.meta["drain_s"] = json_number(gen.drain_s);
  if (cpu.generator_bound()) {
    std::fprintf(stderr,
                 "%s: generator-bound run (generator %.3f s CPU vs server "
                 "%.3f s)\n",
                 shape.name, cpu.generator.total(), cpu.server().total());
  }
  const double server_us_per_op =
      window_ops > 0 ? cpu.server().total() * 1e6 / window_ops : 0;

  print_series("window_ops_per_s", window_rates(gen.windows));
  print_series("window_cpu_us_per_op", window_cpu_us(gen.windows));
  print_series("chunk_p50_ms", chunk_p50);
  print_series("chunk_p99_ms", chunk_p99);
  if (!args.trace) {
    if (!p99) r.problem("too few pages for p99");
    r.add("ops_per_s", ops_per_s, "ops/s");
    r.add("latency_p50_ms", p50.value_or(0), "ms");
    r.add("latency_p99_ms", p99.value_or(0), "ms");
    r.add("cpu_us_per_op",
          shape.stationary ? median(window_cpu_us(gen.windows))
                           : server_us_per_op,
          "us");
    r.add("setup_s", median(setups), "s");
    r.add("peak_rss_mb", peak_rss_mib(), "MiB");
    return r;
  }

  // ---- traced: per-layer attribution.
  r.meta["traced_ops_per_s"] = json_number(ops_per_s);
  std::vector<int> replay_conns;
  if (shape.max_pages == 0) {
    replay_conns = gen.pages_per_connection;  // whole keepalive connections
  } else {
    int pages = 0;
    for (const int n : gen.pages_per_connection) {
      if (pages >= kChurnReplayPages) break;
      replay_conns.push_back(n);
      pages += n;
    }
  }
  const auto [taped, bare] =
      replay_serve(shape.profile, shape.path, shape.streams, replay_conns,
                   kTapeRecords, kAnalysedPages, span_log);
  if (taped.failed != 0 || bare.failed != 0 || taped.analysis_error) {
    r.problem("engine replay failed pages or analysis");
  }
  const auto per = [](double v, double n) { return n > 0 ? v / n : 0; };
  const double engine_us = per(static_cast<double>(taped.server_ns) / 1e3,
                               static_cast<double>(taped.ops));
  const double bare_us = per(static_cast<double>(bare.server_ns) / 1e3,
                             static_cast<double>(bare.ops));
  const double sys_us = per(cpu.server().sys_s * 1e6, window_ops);
  const double analysed = static_cast<double>(taped.analysed_ops);

  std::uint64_t max_out = 0, sum_out = 0;
  for (std::size_t i = 0; i < server.serve->shard_count(); ++i) {
    const std::uint64_t out = server.serve->shard_stats(i).bytes_out;
    max_out = std::max(max_out, out);
    sum_out += out;
  }
  const double mean_out = static_cast<double>(sum_out) /
                          static_cast<double>(server.serve->shard_count());

  r.add("netio.sys_cpu_us_per_op", sys_us, "us");
  r.add("netio.rounds_per_op",
        per(static_cast<double>(stats.rounds), total_ops), "count");
  r.add("netio.wire_bytes_out_per_op",
        per(static_cast<double>(stats.bytes_out), total_ops), "count");
  r.add("netio.wire_bytes_in_per_op",
        per(static_cast<double>(stats.bytes_in), total_ops), "count");
  r.add("netio.connect_ms", median(gen.connect_ms), "ms");
  r.add("netio.server_idle_share",
        1.0 - per(cpu.server().total(), shape.shards * gen.window_s), "ratio");
  r.add("netio.shard_skew", per(static_cast<double>(max_out), mean_out),
        "ratio");
  r.add("netio.user_residual_us_per_op", server_us_per_op - engine_us - sys_us,
        "us");
  r.add("server.engine_us_per_op", engine_us, "us");
  r.add("server.engine_age_ratio", taped.age_ratio(), "ratio");
  r.add("server.header_cache_hit_ratio",
        per(static_cast<double>(stats.header_cache_hits),
            static_cast<double>(stats.header_cache_hits +
                                stats.header_cache_misses)),
        "ratio");
  r.add("server.pushes_per_op", per(static_cast<double>(gen.pushes), total_ops),
        "count");
  r.add("hpack.encode_us_per_op",
        per(static_cast<double>(taped.encode_ns) / 1e3, analysed), "us");
  r.add("hpack.decode_us_per_op",
        per(static_cast<double>(taped.decode_ns) / 1e3, analysed), "us");
  r.add("hpack.header_octets_per_op",
        per(static_cast<double>(taped.header_octets), analysed), "count");
  r.add("h2.frames_per_op", per(static_cast<double>(taped.frames), analysed),
        "count");
  r.add("h2.parse_us_per_op",
        per(static_cast<double>(taped.parse_ns) / 1e3, analysed), "us");
  r.add("trace.records_per_op",
        per(static_cast<double>(server.ring->size() + server.ring->drops()),
            total_ops),
        "count");
  r.add("trace.drops_per_op",
        per(static_cast<double>(stats.trace_drops + server.ring->drops()),
            total_ops),
        "count");
  r.add("trace.overhead_ratio", per(engine_us, bare_us), "ratio");
  r.add("net.exchanges_per_site", 0, "count");
  r.add("net.faults_per_site", 0, "count");
  r.add("core.retries_per_site", 0, "count");
  r.add("core.connections_per_site",
        per(static_cast<double>(gen.connections_opened), total_ops), "count");

  std::vector<ProbeSite> probe_sites(kServeProbeRepeats);
  for (auto& site : probe_sites) {
    site.target = core::Target::testbed(server::profile_by_key(shape.profile));
  }
  add_probe_metrics(r, time_probe_families(probe_sites, {}, 1e9, span_log));
  r.add("core.client_cpu_us_per_op",
        per(cpu.generator.total() * 1e6, window_ops), "us");
  r.add("corpus.driver_us_per_site", 0, "us");
  r.add("corpus.worker_busy_share", 0, "ratio");

  spans.report(shape.name, args.out_dir, args.seed);
  return r;
}

}  // namespace

WorkloadResult run_serve_keepalive(const RunArgs& args) {
  return run_serve(kKeepalive, args);
}

WorkloadResult run_serve_push_churn(const RunArgs& args) {
  return run_serve(kPushChurn, args);
}

}  // namespace h2r::bench
