#include "core/probes.h"

#include <algorithm>
#include <map>

#include "net/upgrade.h"

namespace h2r::core {
namespace {

using h2::ErrorCode;
using h2::FrameType;
using h2::SettingId;

constexpr std::uint32_t kHugeWindow = 0x7FFF'FFFFu;
constexpr std::uint32_t kHalfWindow = 0x4000'0000u;

ClientOptions with_initial_window(std::uint32_t iws) {
  ClientOptions o;
  o.settings = {{SettingId::kInitialWindowSize, iws}};
  return o;
}

}  // namespace

UpdateReaction classify_update_reaction(const ClientConnection& client,
                                        std::optional<std::uint32_t> stream_id,
                                        std::string* debug_out) {
  if (client.goaway_received()) {
    const auto& g = *client.goaway();
    if (debug_out != nullptr) {
      debug_out->assign(g.debug_data.begin(), g.debug_data.end());
    }
    return g.debug_data.empty() ? UpdateReaction::kGoaway
                                : UpdateReaction::kGoawayWithDebug;
  }
  if (stream_id && client.rst_on(*stream_id)) return UpdateReaction::kRstStream;
  return UpdateReaction::kIgnored;
}

std::string_view to_string(SmallWindowOutcome o) noexcept {
  switch (o) {
    case SmallWindowOutcome::kRespectsWindow:
      return "respects-window";
    case SmallWindowOutcome::kZeroLengthData:
      return "zero-length-data";
    case SmallWindowOutcome::kNoResponse:
      return "no-response";
    case SmallWindowOutcome::kOversized:
      return "oversized";
  }
  return "?";
}

std::string_view to_string(UpdateReaction r) noexcept {
  switch (r) {
    case UpdateReaction::kIgnored:
      return "ignore";
    case UpdateReaction::kRstStream:
      return "RST_STREAM";
    case UpdateReaction::kGoaway:
      return "GOAWAY";
    case UpdateReaction::kGoawayWithDebug:
      return "GOAWAY+debug";
  }
  return "?";
}

Target::Target(const Target& other)
    : host(other.host),
      profile(other.profile),
      site(other.site),
      path(other.path),
      offers_h2(other.offers_h2),
      recorder(other.recorder),
      limits(other.limits),
      faults(other.faults),
      ledger(other.ledger),
      transport_seq_(other.transport_seq_) {}

Target& Target::operator=(const Target& other) {
  if (this == &other) return *this;
  host = other.host;
  profile = other.profile;
  site = other.site;
  path = other.path;
  offers_h2 = other.offers_h2;
  recorder = other.recorder;
  limits = other.limits;
  faults = other.faults;
  ledger = other.ledger;
  transport_seq_ = other.transport_seq_;
  cached_profile_.reset();
  cached_site_.reset();
  return *this;
}

const std::shared_ptr<const server::ServerProfile>& Target::shared_profile()
    const {
  if (!cached_profile_) {
    cached_profile_ = std::make_shared<const server::ServerProfile>(profile);
  }
  return cached_profile_;
}

const std::shared_ptr<const server::Site>& Target::shared_site() const {
  if (!cached_site_) {
    cached_site_ = std::make_shared<const server::Site>(site);
  }
  return cached_site_;
}

Target Target::testbed(server::ServerProfile profile) {
  Target t;
  t.host = profile.key + ".testbed.local";
  t.site = server::Site::standard_testbed_site(t.host);
  t.profile = std::move(profile);
  t.path.label = t.host;
  return t;
}

std::unique_ptr<net::Transport> Target::make_transport() const {
  if (!faults.enabled) {
    return std::make_unique<net::LockstepTransport>(recorder, ledger);
  }
  // Each connection gets its own plan: same target state + same faults.seed
  // => the same sequence of plans, independent of which worker runs it.
  std::uint64_t sm = faults.seed + 0x9E3779B97F4A7C15ull * ++transport_seq_;
  return std::make_unique<net::FaultyTransport>(
      net::FaultPlan::generate(splitmix64(sm), faults.probability), recorder,
      ledger);
}

// ------------------------------------------------------------- negotiation

NegotiationProbeResult probe_negotiation(const Target& target) {
  NegotiationProbeResult out;
  const std::vector<std::string> client_protocols = {net::kProtoH2,
                                                     net::kProtoHttp11};
  const auto alpn = net::negotiate_alpn(client_protocols, target.profile.tls);
  const auto npn = net::negotiate_npn(client_protocols, target.profile.tls);
  out.alpn_h2 = alpn.selected_h2();
  out.npn_h2 = npn.selected_h2();
  out.h2_established = out.alpn_h2 || out.npn_h2;
  return out;
}

H2cProbeResult probe_h2c_upgrade(const Target& target) {
  net::UpgradeRequest request;
  request.host = target.host;
  request.settings = {{SettingId::kInitialWindowSize,
                       h2::kDefaultInitialWindowSize}};
  const auto result = net::process_upgrade_request(
      net::render_upgrade_request(request), target.profile.supports_h2c);
  return {.switched = result.switched, .status_line = result.status_line};
}

// ----------------------------------------------------------------- settings

SettingsProbeResult probe_settings(const Target& target) {
  SettingsProbeResult out;
  // Clients are constructed first throughout the suite so the wiretap's
  // connection-start marker precedes the server's preface frames.
  ClientConnection client(target.client_options());
  auto server = target.make_server();
  auto transport = target.make_transport();
  const std::uint32_t sid = client.send_request("/");
  transport->run(client, server, target.limits);

  out.settings_entry_count = client.server_settings_entry_count();
  const auto& s = client.server_settings();
  out.header_table_size = s.raw(SettingId::kHeaderTableSize);
  out.max_concurrent_streams = s.raw(SettingId::kMaxConcurrentStreams);
  out.initial_window_size = s.raw(SettingId::kInitialWindowSize);
  out.max_frame_size = s.raw(SettingId::kMaxFrameSize);
  out.max_header_list_size = s.raw(SettingId::kMaxHeaderListSize);
  out.preemptive_window_bonus = client.preemptive_window_bonus();
  if (auto headers = client.response_headers(sid)) {
    out.headers_received = true;
    out.server_header = std::string(hpack::find_header(*headers, "server"));
  }
  return out;
}

// ------------------------------------------------------------- multiplexing

MultiplexingProbeResult probe_multiplexing(const Target& target,
                                           int num_streams) {
  MultiplexingProbeResult out;
  ClientConnection client(target.client_options(with_initial_window(kHugeWindow)));
  auto server = target.make_server();
  auto transport = target.make_transport();
  std::vector<std::uint32_t> streams;
  streams.reserve(static_cast<std::size_t>(num_streams));
  for (int i = 0; i < num_streams; ++i) {
    streams.push_back(client.send_request("/large/" + std::to_string(i)));
  }
  transport->run(client, server, target.limits);

  std::uint32_t prev = 0;
  for (const auto& ev : client.events()) {
    if (ev.frame.type() != FrameType::kData) continue;
    if (prev != 0 && ev.frame.stream_id != prev) ++out.interleave_switches;
    prev = ev.frame.stream_id;
  }
  for (std::uint32_t sid : streams) {
    if (client.stream_complete(sid)) ++out.streams_completed;
  }
  // FCFS transmission yields exactly num_streams-1 switches; anything well
  // beyond that means responses progressed concurrently.
  out.supported = out.streams_completed == num_streams &&
                  out.interleave_switches >= num_streams * 2;
  return out;
}

ConcurrencyLimitProbeResult probe_concurrency_limit(const Target& target) {
  ConcurrencyLimitProbeResult out;
  {
    Target capped = target;
    capped.profile.max_concurrent_streams = 0;
    ClientConnection client(capped.client_options());
    auto server = capped.make_server();
    auto transport = capped.make_transport();
    const std::uint32_t sid = client.send_request("/small");
    transport->run(client, server, capped.limits);
    out.refused_when_zero =
        client.rst_on(sid) == std::optional<ErrorCode>(ErrorCode::kRefusedStream);
  }
  {
    Target capped = target;
    capped.profile.max_concurrent_streams = 1;
    ClientConnection client(capped.client_options());
    auto server = capped.make_server();
    auto transport = capped.make_transport();
    // Two requests for objects large enough that the first is still active
    // when the second arrives.
    const std::uint32_t first = client.send_request("/large/0");
    const std::uint32_t second = client.send_request("/large/1");
    transport->run(client, server, capped.limits);
    out.refused_second_when_one =
        !client.rst_on(first).has_value() &&
        client.rst_on(second) ==
            std::optional<ErrorCode>(ErrorCode::kRefusedStream);
  }
  return out;
}

// ------------------------------------------------------------- flow control

DataFrameControlResult probe_data_frame_control(const Target& target,
                                                std::uint32_t sframe) {
  DataFrameControlResult out;
  ClientConnection client(target.client_options(with_initial_window(sframe)));
  auto server = target.make_server();
  auto transport = target.make_transport();
  const std::uint32_t sid = client.send_request("/small");
  transport->run(client, server, target.limits);

  out.headers_received = client.response_headers(sid).has_value();
  const auto data = client.frames_of(FrameType::kData, sid);
  if (data.empty()) {
    out.outcome = SmallWindowOutcome::kNoResponse;
    return out;
  }
  out.first_data_size = data.front()->header_block_size;
  if (out.first_data_size == sframe) {
    out.outcome = SmallWindowOutcome::kRespectsWindow;
  } else if (out.first_data_size == 0) {
    out.outcome = SmallWindowOutcome::kZeroLengthData;
  } else {
    out.outcome = SmallWindowOutcome::kOversized;
  }
  return out;
}

ZeroWindowHeadersResult probe_zero_window_headers(const Target& target) {
  ZeroWindowHeadersResult out;
  ClientConnection client(target.client_options(with_initial_window(0)));
  auto server = target.make_server();
  auto transport = target.make_transport();
  const std::uint32_t sid = client.send_request("/small");
  transport->run(client, server, target.limits);
  out.headers_received = client.response_headers(sid).has_value();
  for (const auto* ev : client.frames_of(FrameType::kData, sid)) {
    if (ev->header_block_size != 0) out.data_received = true;
  }
  return out;
}

WindowUpdateProbeResult probe_window_update_reactions(const Target& target) {
  WindowUpdateProbeResult out;

  {  // zero increment, stream scope — on a stream mid-response
    ClientOptions opts;
    opts.auto_stream_window_update = false;  // keep the stream open/blocked
    ClientConnection client(target.client_options(opts));
    auto server = target.make_server();
    auto transport = target.make_transport();
    const std::uint32_t sid = client.send_request("/large/0");
    transport->run(client, server, target.limits);
    client.send_window_update(sid, 0);
    transport->run(client, server, target.limits);
    out.zero_on_stream = classify_update_reaction(client, sid, &out.zero_debug_data);
  }
  {  // zero increment, connection scope
    ClientConnection client(target.client_options());
    auto server = target.make_server();
    auto transport = target.make_transport();
    client.send_window_update(0, 0);
    transport->run(client, server, target.limits);
    out.zero_on_connection = classify_update_reaction(client, std::nullopt);
  }
  {  // overflowing increments, stream scope (two halves summing past 2^31-1)
    ClientOptions opts;
    opts.auto_stream_window_update = false;
    ClientConnection client(target.client_options(opts));
    auto server = target.make_server();
    auto transport = target.make_transport();
    const std::uint32_t sid = client.send_request("/large/0");
    transport->run(client, server, target.limits);
    client.send_window_update(sid, kHalfWindow);
    client.send_window_update(sid, kHalfWindow);
    transport->run(client, server, target.limits);
    out.large_on_stream = classify_update_reaction(client, sid);
  }
  {  // overflowing increments, connection scope
    ClientConnection client(target.client_options());
    auto server = target.make_server();
    auto transport = target.make_transport();
    const std::uint32_t sid = client.send_request("/large/0");
    (void)sid;
    client.send_window_update(0, kHalfWindow);
    client.send_window_update(0, kHalfWindow);
    transport->run(client, server, target.limits);
    out.large_on_connection = classify_update_reaction(client, std::nullopt);
  }
  return out;
}

// ----------------------------------------------------------------- priority

PriorityProbeResult probe_priority_mechanism(const Target& target) {
  // Huge stream windows so only the connection window gates DATA; no
  // automatic connection window updates, so draining it blocks the server.
  ClientOptions opts = with_initial_window(kHugeWindow);
  opts.auto_connection_window_update = false;
  opts.auto_stream_window_update = false;
  ClientConnection client(target.client_options(opts));
  auto server = target.make_server();
  auto transport = target.make_transport();  // one connection, six exchanges
  return run_priority_rounds(client, server, *transport, target.limits);
}

PriorityProbeResult run_priority_rounds(ClientConnection& client,
                                        server::Http2Server& server,
                                        net::Transport& transport,
                                        const net::ExchangeLimits& limits) {
  PriorityProbeResult out;

  // Step 1 (Algorithm 1 lines 2-21): drain the connection window.
  const std::uint32_t drain = client.send_request("/object/0");  // 64 KiB
  transport.run(client, server, limits);
  if (client.data_received(drain) != h2::kDefaultInitialWindowSize) {
    return out;  // context preparation failed; verdict unreliable
  }
  client.send_rst_stream(drain, ErrorCode::kCancel);
  transport.run(client, server, limits);

  // Step 2 (lines 22-28): six requests with the Table I dependency tree...
  auto prio = [](std::uint32_t dep, bool excl = false) {
    return h2::PriorityInfo{.dependency = dep, .weight_field = 0,
                            .exclusive = excl};
  };
  const std::uint32_t a = client.send_request("/object/1", prio(0));
  const std::uint32_t b = client.send_request("/object/2", prio(a));
  const std::uint32_t c = client.send_request("/object/3", prio(a));
  const std::uint32_t d = client.send_request("/object/4", prio(a));
  const std::uint32_t e = client.send_request("/object/5", prio(b));
  const std::uint32_t f = client.send_request("/object/6", prio(d));
  transport.run(client, server, limits);
  out.headers_during_zero_window =
      client.response_headers(a).has_value();

  // ...then PRIORITY frames reshaping it to  D -> A -> {B, C, F}, E under C
  // (the §5.3.3-style reprioritization the paper describes in §V-E1).
  client.send_priority(d, prio(0));
  client.send_priority(a, prio(d, /*excl=*/true));
  client.send_priority(e, prio(c));
  transport.run(client, server, limits);

  // Step 3 (line 29-30): reopen the connection window and observe order.
  client.send_window_update(0, 0x7FFF'0000u);
  transport.run(client, server, limits);

  const std::vector<std::uint32_t> all = {a, b, c, d, e, f};
  std::map<std::uint32_t, std::size_t> first, last;
  for (const auto& ev : client.events()) {
    if (ev.frame.type() != FrameType::kData) continue;
    const std::uint32_t sid = ev.frame.stream_id;
    if (std::find(all.begin(), all.end(), sid) == all.end()) continue;
    if (!first.count(sid)) first[sid] = ev.sequence;
    last[sid] = ev.sequence;
  }
  for (std::uint32_t sid : all) {
    if (!client.stream_complete(sid)) return out;  // ran stays false
  }
  out.ran = true;

  auto check = [&](const std::map<std::uint32_t, std::size_t>& seq) {
    // D before everything; A before everything except D; C before E.
    for (std::uint32_t sid : all) {
      if (sid != d && seq.at(d) >= seq.at(sid)) return false;
      if (sid != d && sid != a && seq.at(a) >= seq.at(sid)) return false;
    }
    return seq.at(c) < seq.at(e);
  };
  out.pass_by_first_data = check(first);
  out.pass_by_last_data = check(last);
  out.pass_by_both = out.pass_by_first_data && out.pass_by_last_data;
  return out;
}

SelfDependencyProbeResult probe_self_dependency(const Target& target) {
  SelfDependencyProbeResult out;
  ClientOptions opts;
  opts.auto_stream_window_update = false;  // keep the stream alive
  ClientConnection client(target.client_options(opts));
  auto server = target.make_server();
  auto transport = target.make_transport();
  const std::uint32_t sid = client.send_request("/large/0");
  client.send_priority(sid, {.dependency = sid, .weight_field = 0});
  transport->run(client, server, target.limits);
  out.reaction = classify_update_reaction(client, sid);
  return out;
}

// --------------------------------------------------------------------- push

PushProbeResult probe_server_push(const Target& target,
                                  const std::string& page) {
  PushProbeResult out;
  ClientOptions opts;
  opts.settings = {{SettingId::kEnablePush, 1}};  // §III-D: opt in explicitly
  ClientConnection client(target.client_options(opts));
  auto server = target.make_server();
  auto transport = target.make_transport();
  client.send_request(page);
  transport->run(client, server, target.limits);
  for (const auto& [promised_id, request] : client.pushes()) {
    out.pushed_paths.emplace_back(hpack::find_header(request, ":path"));
    out.pushed_bytes += client.data_received(promised_id);
  }
  out.push_received = !out.pushed_paths.empty();
  return out;
}

// -------------------------------------------------------------------- hpack

HpackProbeResult probe_hpack_ratio(const Target& target, int h,
                                   const std::string& path) {
  HpackProbeResult out;
  if (h < 1) return out;  // Equation 1 needs S_1; ran stays false
  ClientConnection client(target.client_options());
  auto server = target.make_server();
  auto transport = target.make_transport();
  std::vector<std::uint32_t> streams;
  for (int i = 0; i < h; ++i) {
    // Sequential requests so each response block sees the dynamic table
    // state left by the previous one (§III-E).
    streams.push_back(client.send_request(path));
    transport->run(client, server, target.limits);
  }
  for (std::uint32_t sid : streams) {
    const auto headers = client.frames_of(FrameType::kHeaders, sid);
    if (headers.empty()) return out;  // ran stays false
    out.header_sizes.push_back(headers.front()->header_block_size);
  }
  const double s1 = static_cast<double>(out.header_sizes.front());
  double sum = 0;
  for (std::size_t s : out.header_sizes) sum += static_cast<double>(s);
  out.ratio = sum / (s1 * static_cast<double>(h));
  out.ran = true;
  return out;
}

// --------------------------------------------------------------------- ping

PingProbeResult probe_ping(const Target& target, int samples, Rng& rng) {
  PingProbeResult out;
  ClientConnection client(target.client_options());
  auto server = target.make_server();
  auto transport = target.make_transport();
  const std::array<std::uint8_t, 8> opaque = {0x13, 0x37, 0xC0, 0xDE,
                                              0x00, 0x01, 0x02, 0x03};
  client.send_ping(opaque);
  transport->run(client, server, target.limits);
  for (const auto* ev : client.frames_of(FrameType::kPing)) {
    if (ev->frame.has_flag(h2::flags::kAck) &&
        ev->frame.as<h2::PingPayload>().opaque == opaque) {
      out.supported = true;
    }
  }
  if (!out.supported) return out;
  for (int i = 0; i < samples; ++i) {
    out.h2_ping_ms.push_back(target.path.sample_h2_ping(rng));
    out.icmp_ms.push_back(target.path.sample_icmp(rng));
    out.tcp_handshake_ms.push_back(target.path.sample_tcp_handshake(rng));
    out.http11_ms.push_back(target.path.sample_http11(rng));
  }
  return out;
}

}  // namespace h2r::core
