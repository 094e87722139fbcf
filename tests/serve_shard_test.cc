// Sharded-serving tests: zero-error loopback runs at 2 and 4 shards, the
// acceptor fallback's deterministic round-robin, merged-stats = per-shard
// sums, GOAWAY on every shard at drain (with an untorn merged trace), a
// fingerprint-identity check that sharding never alters wire behaviour, and
// the response header-block cache's byte-identity guarantees.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/client.h"
#include "h2/constants.h"
#include "net/transport.h"
#include "netio/load.h"
#include "netio/serve_shard.h"
#include "server/engine.h"
#include "server/profile.h"
#include "server/site.h"
#include "trace/recorder.h"

namespace h2r {
namespace {

// --------------------------------------------------------------- harness

/// Runs a ShardedServe on a background thread; stop() drains gracefully.
struct ShardedRunner {
  explicit ShardedRunner(const netio::ShardedServeOptions& opts) {
    auto created = netio::ShardedServe::create(opts);
    EXPECT_TRUE(created.ok()) << created.status().message();
    if (!created.ok()) return;
    serve = std::move(created.value());
    thread = std::thread([this] {
      const Status run = serve->run();
      EXPECT_TRUE(run.ok()) << run.message();
    });
  }

  void stop() {
    if (!serve || stopped) return;
    serve->request_shutdown();
    thread.join();
    stopped = true;
  }

  ~ShardedRunner() { stop(); }

  std::unique_ptr<netio::ShardedServe> serve;
  std::thread thread;
  bool stopped = false;
};

/// Everything a client can observe about a conversation, flattened into a
/// comparable string (same shape as netio_test's lockstep-identity helper).
std::string fingerprint(const core::ClientConnection& client) {
  std::string out;
  for (const auto& received : client.events()) {
    out += std::to_string(static_cast<int>(received.frame.type()));
    out += ":" + std::to_string(received.frame.stream_id);
    out += ":" + std::to_string(static_cast<int>(received.frame.flags));
    out += ":" + std::to_string(received.header_block_size);
    if (received.headers.has_value()) {
      for (const auto& header : *received.headers) {
        out += "|" + header.name + "=" + header.value;
      }
    }
    out += "\n";
  }
  return out;
}

/// Pumps one scripted GET (plus any promised pushes) through @p port and
/// returns the client-side fingerprint.
std::string sharded_socket_fingerprint(std::uint16_t port) {
  auto sock = netio::SocketClient::connect("127.0.0.1", port);
  EXPECT_TRUE(sock.ok()) << sock.status().message();
  if (!sock.ok()) return {};
  auto& client = sock.value()->client();
  const std::uint32_t sid = client.send_request("/");
  const Status pumped =
      sock.value()->pump_until([sid](core::ClientConnection& c) {
        if (!c.stream_complete(sid)) return false;
        for (const auto& [pushed_id, headers] : c.pushes()) {
          (void)headers;
          if (!c.stream_complete(pushed_id)) return false;
        }
        return true;
      });
  EXPECT_TRUE(pumped.ok()) << pumped.message();
  EXPECT_TRUE(sock.value()->finish().ok());
  return fingerprint(client);
}

// ------------------------------------------------ zero-error sharded runs

void run_sharded_load(unsigned shards, bool force_fallback) {
  netio::ShardedServeOptions opts;
  opts.base.profile_key = "nginx";
  opts.shards = shards;
  opts.force_accept_fallback = force_fallback;
  ShardedRunner runner(opts);
  ASSERT_TRUE(runner.serve);

  netio::LoadOptions load;
  load.port = runner.serve->port();
  load.connections = static_cast<int>(shards) * 2;
  load.requests = 400;
  load.streams = 4;
  load.threads = 2;
  const netio::LoadReport report = netio::run_load(load);
  EXPECT_EQ(report.completed, 400u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(report.total_errors(), 0u);
  EXPECT_EQ(report.clean_closes, static_cast<std::uint64_t>(load.connections));

  runner.stop();
  const netio::ServeStats& stats = runner.serve->stats();
  EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(load.connections));
  EXPECT_EQ(stats.served_clean, static_cast<std::uint64_t>(load.connections));
  EXPECT_TRUE(stats.errors.empty());
  EXPECT_EQ(stats.trace_drops, 0u);
  // Repeated GETs for the same resources must hit the header-block cache.
  EXPECT_GT(stats.header_cache_hits, 0u);
}

TEST(ShardedServe, TwoShardsServeLoadWithZeroErrors) {
  run_sharded_load(2, /*force_fallback=*/false);
}

TEST(ShardedServe, FourShardsServeLoadWithZeroErrors) {
  run_sharded_load(4, /*force_fallback=*/false);
}

TEST(ShardedServe, FallbackAcceptorServesLoadWithZeroErrors) {
  run_sharded_load(3, /*force_fallback=*/true);
}

// ------------------------------------------- deterministic fallback intake

TEST(ShardedServe, FallbackRoundRobinsConnectionsAcrossShards) {
  netio::ShardedServeOptions opts;
  opts.base.profile_key = "nginx";
  opts.shards = 3;
  opts.force_accept_fallback = true;
  ShardedRunner runner(opts);
  ASSERT_TRUE(runner.serve);
  EXPECT_FALSE(runner.serve->used_reuseport());
  EXPECT_EQ(runner.serve->shard_count(), 3u);

  // Connect strictly one at a time — completing a request proves the accept
  // happened — so accept order (and thus the round-robin) is deterministic.
  for (int i = 0; i < 6; ++i) {
    auto sock = netio::SocketClient::connect("127.0.0.1", runner.serve->port());
    ASSERT_TRUE(sock.ok()) << sock.status().message();
    auto& client = sock.value()->client();
    const std::uint32_t sid = client.send_request("/");
    ASSERT_TRUE(sock.value()
                    ->pump_until([sid](core::ClientConnection& c) {
                      return c.stream_complete(sid);
                    })
                    .ok());
    EXPECT_TRUE(sock.value()->finish().ok());
  }

  runner.stop();
  // Connection i lands on shard i % 3: exactly two per shard.
  for (std::size_t shard = 0; shard < 3; ++shard) {
    EXPECT_EQ(runner.serve->shard_stats(shard).accepted, 2u)
        << "shard " << shard;
  }
}

// -------------------------------------------------- merged-stats identity

TEST(ShardedServe, MergedStatsEqualPerShardSums) {
  netio::ShardedServeOptions opts;
  opts.base.profile_key = "nginx";
  opts.shards = 2;
  opts.force_accept_fallback = true;  // both shards are guaranteed traffic
  ShardedRunner runner(opts);
  ASSERT_TRUE(runner.serve);

  netio::LoadOptions load;
  load.port = runner.serve->port();
  load.connections = 4;
  load.requests = 200;
  load.streams = 2;
  const netio::LoadReport report = netio::run_load(load);
  EXPECT_EQ(report.total_errors(), 0u);

  runner.stop();
  netio::ServeStats summed;
  for (std::size_t shard = 0; shard < runner.serve->shard_count(); ++shard) {
    summed.merge(runner.serve->shard_stats(shard));
  }
  const netio::ServeStats& merged = runner.serve->stats();
  EXPECT_EQ(merged.accepted, summed.accepted);
  EXPECT_EQ(merged.served_clean, summed.served_clean);
  EXPECT_EQ(merged.disconnected, summed.disconnected);
  EXPECT_EQ(merged.declined_h1, summed.declined_h1);
  EXPECT_EQ(merged.accept_refused, summed.accept_refused);
  EXPECT_EQ(merged.drain_expired, summed.drain_expired);
  EXPECT_EQ(merged.rounds, summed.rounds);
  EXPECT_EQ(merged.bytes_in, summed.bytes_in);
  EXPECT_EQ(merged.bytes_out, summed.bytes_out);
  EXPECT_EQ(merged.trace_drops, summed.trace_drops);
  EXPECT_EQ(merged.header_cache_hits, summed.header_cache_hits);
  EXPECT_EQ(merged.header_cache_misses, summed.header_cache_misses);
  EXPECT_EQ(merged.errors, summed.errors);
  // Each shard did real work — the sums are not trivially one shard's.
  EXPECT_GT(runner.serve->shard_stats(0).accepted, 0u);
  EXPECT_GT(runner.serve->shard_stats(1).accepted, 0u);
}

// -------------------------------------------------------- drain broadcast

TEST(ShardedServe, DrainSendsGoawayOnEveryShardAndMergesTraceUntorn) {
  trace::VectorRecorder tape;
  netio::ShardedServeOptions opts;
  opts.base.profile_key = "nginx";
  opts.base.recorder = &tape;
  opts.shards = 3;
  opts.force_accept_fallback = true;  // one live connection per shard
  ShardedRunner runner(opts);
  ASSERT_TRUE(runner.serve);

  std::vector<std::unique_ptr<netio::SocketClient>> clients;
  for (int i = 0; i < 3; ++i) {
    auto sock = netio::SocketClient::connect("127.0.0.1", runner.serve->port());
    ASSERT_TRUE(sock.ok()) << sock.status().message();
    const std::uint32_t sid = sock.value()->client().send_request("/");
    ASSERT_TRUE(sock.value()
                    ->pump_until([sid](core::ClientConnection& c) {
                      return c.stream_complete(sid);
                    })
                    .ok());
    clients.push_back(std::move(sock.value()));
  }

  // Drain with one idle connection parked on every shard: the broadcast
  // must reach all three reactors, and each engine must GOAWAY its peer.
  runner.serve->request_shutdown();
  for (auto& sock : clients) {
    const Status pumped = sock->pump_until(
        [](core::ClientConnection& c) { return c.goaway_received(); });
    EXPECT_TRUE(pumped.ok()) << pumped.message();
    EXPECT_TRUE(sock->client().goaway_received());
  }
  clients.clear();
  runner.stop();

  const netio::ServeStats& stats = runner.serve->stats();
  EXPECT_EQ(stats.accepted, 3u);
  EXPECT_EQ(stats.served_clean, 3u);
  EXPECT_EQ(stats.drain_expired, 0u);
  EXPECT_EQ(stats.trace_drops, 0u);

  // The merged tape holds one contiguous segment per connection, and every
  // segment carries the drain GOAWAY (s2c, type 0x7).
  int segments = 0;
  std::vector<bool> goaway_in_segment;
  for (const auto& event : tape.events()) {
    if (event.kind == trace::EventKind::kConnectionStart) {
      ++segments;
      goaway_in_segment.push_back(false);
      continue;
    }
    ASSERT_GT(segments, 0) << "record before any kConnectionStart";
    if (event.kind == trace::EventKind::kFrame &&
        event.dir == trace::Direction::kServerToClient &&
        event.frame_type == static_cast<std::uint8_t>(h2::FrameType::kGoaway)) {
      goaway_in_segment.back() = true;
    }
  }
  EXPECT_EQ(segments, 3);
  for (std::size_t i = 0; i < goaway_in_segment.size(); ++i) {
    EXPECT_TRUE(goaway_in_segment[i]) << "connection segment " << i;
  }
}

// ------------------------------------------------------ bounded sink merge

/// A sink that keeps 256 records while each shard records thousands: the
/// shard tapes are bounded to the same 256, and what they evicted must still
/// be carried into the sink's numbering and drops.
void serve_into_bounded_sink(unsigned shards) {
  constexpr std::size_t kKeep = 256;
  trace::RingRecorder sink(kKeep);
  netio::ShardedServeOptions opts;
  opts.base.profile_key = "nginx";
  opts.base.recorder = &sink;
  opts.shards = shards;
  opts.force_accept_fallback = true;  // connection i lands on shard i % N
  ShardedRunner runner(opts);
  ASSERT_TRUE(runner.serve);

  netio::LoadOptions load;
  load.port = runner.serve->port();
  load.connections = 8;
  load.requests = 2000;
  load.streams = 4;
  const netio::LoadReport report = netio::run_load(load);
  EXPECT_EQ(report.completed, 2000u);
  EXPECT_EQ(report.total_errors(), 0u);
  runner.stop();

  // Every request leaves at least its c2s HEADERS and s2c HEADERS + DATA on
  // a tape, so far more than the 2 x 256 that survive reach the numbering.
  const netio::ServeStats& stats = runner.serve->stats();
  EXPECT_GE(sink.events_recorded(), 3u * 2000u + 8u);
  EXPECT_EQ(sink.size(), kKeep);
  EXPECT_EQ(sink.drops() + sink.size(), sink.events_recorded());
  // h2serve exports per-connection drops plus sink drops: every record the
  // connections made except the ones the sink kept.
  const std::uint64_t total = stats.trace_drops + sink.events_recorded();
  EXPECT_EQ(stats.trace_drops + sink.drops(), total - kKeep);

  std::string bytes;
  sink.serialize(bytes);
  std::vector<trace::TraceEvent> parsed;
  std::uint64_t drops = 0;
  std::string error;
  ASSERT_TRUE(trace::parse_trace_bin(bytes, parsed, drops, error)) << error;
  EXPECT_EQ(drops, sink.drops());
  ASSERT_EQ(parsed.size(), kKeep);
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].seq, sink.drops() + i);
  }
}

TEST(ShardedServe, BoundedSinkBoundsShardTapesAndCarriesTheirDrops) {
  serve_into_bounded_sink(2);
}

TEST(ShardedServe, OneShardRecordsStraightIntoABoundedSink) {
  serve_into_bounded_sink(1);
}

// --------------------------------------------------- wire-behaviour parity

/// The single-ServeLoop-equivalent reference: one GET served in-process.
std::string lockstep_reference(const std::string& profile_key) {
  server::Http2Server server(server::profile_by_key(profile_key),
                             server::Site::standard_testbed_site());
  core::ClientConnection client;
  client.send_request("/");
  net::LockstepTransport().run(client, server);
  return fingerprint(client);
}

TEST(ShardedServe, ShardingNeverAltersWireBehaviour) {
  for (const std::string profile : {"nginx", "h2o"}) {
    const std::string reference = lockstep_reference(profile);
    ASSERT_FALSE(reference.empty());
    for (const bool fallback : {false, true}) {
      netio::ShardedServeOptions opts;
      opts.base.profile_key = profile;
      opts.shards = 2;
      opts.force_accept_fallback = fallback;
      ShardedRunner runner(opts);
      ASSERT_TRUE(runner.serve);
      EXPECT_EQ(sharded_socket_fingerprint(runner.serve->port()), reference)
          << profile << (fallback ? " fallback" : " reuseport");
    }
  }
}

// ------------------------------------------------- header-block cache

struct LockstepOutcome {
  std::string print;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

/// Serves @p repeats GETs for "/" over one lockstep connection, optionally
/// shrinking the server's HPACK encode table mid-run via client SETTINGS.
LockstepOutcome serve_repeats(const std::string& profile_key, server::Site site,
                              bool cache_on, int repeats,
                              bool resize_table_mid_run) {
  server::Http2Server server(server::profile_by_key(profile_key),
                             std::move(site));
  server.set_header_block_cache(cache_on);
  core::ClientConnection client;
  client.send_request("/");
  if (resize_table_mid_run) {
    client.send_settings({{h2::SettingId::kHeaderTableSize, 64}});
  }
  for (int i = 1; i < repeats; ++i) client.send_request("/");
  net::LockstepTransport().run(client, server);
  return {fingerprint(client), server.header_cache_hits(),
          server.header_cache_misses()};
}

TEST(HeaderBlockCache, CachedBlocksAreByteIdenticalToFreshEncodes) {
  for (const std::string profile : {"nginx", "h2o"}) {
    const LockstepOutcome cached = serve_repeats(
        profile, server::Site::standard_testbed_site(), true, 8, false);
    const LockstepOutcome fresh = serve_repeats(
        profile, server::Site::standard_testbed_site(), false, 8, false);
    ASSERT_FALSE(cached.print.empty());
    EXPECT_EQ(cached.print, fresh.print) << profile;
    EXPECT_GT(cached.hits, 0u) << profile;
    EXPECT_EQ(fresh.hits, 0u) << profile;
  }
}

TEST(HeaderBlockCache, CookieChurnSitesNeverServeCachedBlocks) {
  auto churn_site = [] {
    server::Site site = server::Site::standard_testbed_site();
    site.set_cookie_churn(true);
    return site;
  };
  const LockstepOutcome cached =
      serve_repeats("nginx", churn_site(), true, 6, false);
  const LockstepOutcome fresh =
      serve_repeats("nginx", churn_site(), false, 6, false);
  ASSERT_FALSE(cached.print.empty());
  // Every response carries a fresh set-cookie, so a replayed block would be
  // visibly wrong — the cache must stand aside entirely.
  EXPECT_EQ(cached.print, fresh.print);
  EXPECT_EQ(cached.hits, 0u);
}

TEST(HeaderBlockCache, PeerTableResizeInvalidatesWithoutCorruption) {
  for (const std::string profile : {"nginx", "h2o"}) {
    const LockstepOutcome cached = serve_repeats(
        profile, server::Site::standard_testbed_site(), true, 8, true);
    const LockstepOutcome fresh = serve_repeats(
        profile, server::Site::standard_testbed_site(), false, 8, true);
    ASSERT_FALSE(cached.print.empty());
    // A §6.3 table-size update changes every block encoded after it; stale
    // entries from before the resize must never replay.
    EXPECT_EQ(cached.print, fresh.print) << profile;
  }
}

}  // namespace
}  // namespace h2r
