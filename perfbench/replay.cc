#include "perfbench/replay.h"

#include <algorithm>
#include <memory>

#include "h2/constants.h"
#include "h2/frame_codec.h"
#include "hpack/decoder.h"
#include "hpack/encoder.h"
#include "net/transport.h"
#include "perfbench/accounting.h"
#include "server/profile.h"
#include "trace/recorder.h"

namespace h2r::bench {

namespace {

constexpr std::size_t kClientPrefaceOctets = 24;
constexpr std::uint32_t kLoadWindow = (1u << 30) - 1;

/// net::Endpoint over @p impl that adds the time spent in its calls to a
/// counter and, when capturing, appends everything it sends.
template <typename T>
class TimedEndpoint final : public net::Endpoint {
 public:
  TimedEndpoint(T& impl, std::uint64_t& ns) : impl_(impl), ns_(ns) {}

  Bytes* capture = nullptr;

  [[nodiscard]] Bytes take_output() override {
    const std::uint64_t t0 = now_ns();
    Bytes out = impl_.take_output();
    ns_ += now_ns() - t0;
    if (capture != nullptr) {
      capture->insert(capture->end(), out.begin(), out.end());
    }
    return out;
  }
  void receive(std::span<const std::uint8_t> bytes) override {
    const std::uint64_t t0 = now_ns();
    impl_.receive(bytes);
    ns_ += now_ns() - t0;
  }
  void recycle(Bytes buffer) override {
    const std::uint64_t t0 = now_ns();
    impl_.recycle(std::move(buffer));
    ns_ += now_ns() - t0;
  }
  [[nodiscard]] bool alive() const override { return impl_.alive(); }
  void on_transport_close(const Status& status) override {
    if constexpr (requires(T& t) { t.on_transport_close(status); }) {
      impl_.on_transport_close(status);
    }
  }

 private:
  T& impl_;
  std::uint64_t& ns_;
};

/// One direction of a captured connection: frame parser, header-block
/// reassembly, and the HPACK decoder/encoder pair of that direction.
struct Direction {
  h2::FrameParser parser;
  hpack::Decoder decoder;
  hpack::Encoder encoder;
  Bytes pending_block;  ///< HEADERS/PUSH_PROMISE awaiting CONTINUATION
  std::vector<Bytes> blocks;
  std::size_t skip = 0;  ///< leading octets that are not frames (preface)

  /// Parses @p bytes into frames, collecting complete header blocks.
  /// Returns frames parsed; false in @p ok on a parse error.
  std::uint64_t parse(const Bytes& bytes, bool& ok) {
    std::span<const std::uint8_t> in(bytes);
    const std::size_t cut = std::min(skip, in.size());
    skip -= cut;
    parser.feed(in.subspan(cut));
    std::uint64_t frames = 0;
    while (auto next = parser.next_view()) {
      if (!next->ok()) {
        ok = false;
        break;
      }
      const h2::FrameView& v = next->value();
      ++frames;
      const auto type = v.type();
      if (type == h2::FrameType::kHeaders ||
          type == h2::FrameType::kPushPromise ||
          type == h2::FrameType::kContinuation) {
        pending_block.insert(pending_block.end(), v.body.begin(),
                             v.body.end());
        if ((v.flags & h2::flags::kEndHeaders) != 0) {
          blocks.push_back(std::move(pending_block));
          pending_block.clear();
        }
      }
    }
    return frames;
  }
};

struct Analysis {
  Direction c2s;
  Direction s2c;
  ByteWriter scratch;

  Analysis() { c2s.skip = kClientPrefaceOctets; }

  /// Runs one batch's captured bytes through parse, decode, encode and
  /// books the times; spans (parent @p op) when @p spans is set.
  void batch(const Bytes& c2s_bytes, const Bytes& s2c_bytes,
             ReplayTotals& t, bool count, SpanLog* spans, std::uint32_t op,
             std::uint32_t ordinal) {
    bool ok = true;
    const std::uint64_t t0 = now_ns();
    const std::uint64_t frames = s2c.parse(s2c_bytes, ok);
    const std::uint64_t t1 = now_ns();
    (void)c2s.parse(c2s_bytes, ok);

    const std::uint64_t t2 = now_ns();
    std::vector<hpack::HeaderList> lists_c2s, lists_s2c;
    std::uint64_t octets = 0;
    const auto decode_all = [&](Direction& d,
                                std::vector<hpack::HeaderList>& out) {
      for (const Bytes& block : d.blocks) {
        octets += block.size();
        auto decoded = d.decoder.decode(block);
        if (!decoded.ok()) {
          ok = false;
          continue;
        }
        out.push_back(std::move(decoded).value());
      }
      d.blocks.clear();
    };
    decode_all(c2s, lists_c2s);
    decode_all(s2c, lists_s2c);
    const std::uint64_t t3 = now_ns();
    for (const auto& list : lists_c2s) c2s.encoder.encode(list, scratch);
    for (const auto& list : lists_s2c) s2c.encoder.encode(list, scratch);
    (void)scratch.take();
    const std::uint64_t t4 = now_ns();

    if (!ok) t.analysis_error = true;
    if (!count) return;
    t.frames += frames;
    t.header_octets += octets;
    t.parse_ns += t1 - t0;
    t.decode_ns += t3 - t2;
    t.encode_ns += t4 - t3;
    if (spans != nullptr) {
      spans->add("h2", op, t0, t1, ordinal);
      spans->add("hpack", op, t2, t4, ordinal);
    }
  }
};

}  // namespace

core::ClientOptions load_client_options() {
  core::ClientOptions o;
  o.with_initial_window(kLoadWindow);
  o.auto_connection_window_update = false;
  o.auto_stream_window_update = false;
  o.retain_data_payloads = false;
  return o;
}

void open_load_windows(core::ClientConnection& client) {
  client.send_window_update(0, kLoadWindow - h2::kDefaultInitialWindowSize);
}

void replay_connection(core::ClientConnection& client,
                       server::Http2Server& server, const server::Site& site,
                       const std::string& path, int ops, int streams,
                       bool analyse, std::uint32_t ordinal, SpanLog* spans,
                       ReplayTotals& t) {
  net::LockstepTransport transport;
  std::uint64_t client_ns = 0, server_ns = 0;
  TimedEndpoint<core::ClientConnection> c(client, client_ns);
  TimedEndpoint<server::Http2Server> s(server, server_ns);
  std::unique_ptr<Analysis> analysis;
  Bytes c2s_bytes, s2c_bytes;
  if (analyse) {
    analysis = std::make_unique<Analysis>();
    c.capture = &c2s_bytes;
    s.capture = &s2c_bytes;
  }

  // Handshake: preface and SETTINGS both ways, before any op.
  (void)transport.run_endpoints(c, s);
  if (analysis) analysis->batch(c2s_bytes, s2c_bytes, t, false, nullptr, 0, 0);
  c2s_bytes.clear();
  s2c_bytes.clear();
  client_ns = server_ns = 0;

  PageTracker tracker(site);
  std::vector<PageTracker::Settled> settled;
  std::vector<std::pair<int, std::uint64_t>> batches;  // ops, server ns
  int issued = 0, done = 0;
  while (done < ops) {
    while (issued < ops && tracker.in_flight() <
                               static_cast<std::size_t>(streams)) {
      tracker.submit(client.send_request(path), path, 0);
      ++issued;
    }
    const std::uint64_t server0 = server_ns;
    const std::uint64_t b0 = now_ns();
    (void)transport.run_endpoints(c, s);
    const std::uint64_t b1 = now_ns();
    settled.clear();
    tracker.harvest(client, 0, settled);
    if (!client.alive() || settled.empty()) {
      tracker.fail_all(0, settled);
      t.failed += static_cast<std::uint64_t>(ops - done);
      break;
    }
    for (const auto& page : settled) {
      if (page.ok) {
        ++t.ops;
        t.pushes += static_cast<std::uint64_t>(page.pushes);
      } else {
        ++t.failed;
      }
    }
    done += static_cast<int>(settled.size());
    batches.emplace_back(static_cast<int>(settled.size()),
                         server_ns - server0);
    std::uint32_t op = 0;
    if (spans != nullptr) {
      op = spans->reserve();
      spans->add("engine", op, b0, b1, ordinal, settled.front().stream);
    }
    if (analysis) {
      analysis->batch(c2s_bytes, s2c_bytes, t, true, spans, op, ordinal);
      t.analysed_ops += settled.size();
      c2s_bytes.clear();
      s2c_bytes.clear();
    }
    if (spans != nullptr) {
      spans->add("replay_op", 0, b0, now_ns(), ordinal,
                 settled.front().stream, op);
    }
  }
  t.server_ns += server_ns;
  t.client_ns += client_ns;
  t.cache_hits += server.header_cache_hits();
  t.cache_misses += server.header_cache_misses();

  // Per-op server time over the first and last tenth of this connection.
  const int tenth = std::max(1, done / 10);
  int index = 0;
  for (const auto& [n, ns] : batches) {
    const double per_op = static_cast<double>(ns) / n;
    for (int i = 0; i < n; ++i, ++index) {
      if (index < tenth) {
        t.first_ns += per_op;
        t.first_ops += 1;
      }
      if (index >= done - tenth) {
        t.last_ns += per_op;
        t.last_ops += 1;
      }
    }
  }
}

ServeReplay replay_serve(const std::string& profile_key,
                         const std::string& path, int streams,
                         const std::vector<int>& ops_per_connection,
                         std::size_t tape_records, std::uint64_t analyse_ops,
                         SpanLog* spans) {
  const auto profile = std::make_shared<const server::ServerProfile>(
      server::profile_by_key(profile_key));
  const auto site = std::make_shared<const server::Site>(
      server::Site::standard_testbed_site());
  server::SharedBlockCache taped_blocks, bare_blocks;
  const core::ClientOptions client_opts = load_client_options();

  ServeReplay out;
  std::uint32_t ordinal = 0;
  for (const int ops : ops_per_connection) {
    ++ordinal;
    const bool analyse = out.taped.analysed_ops < analyse_ops;
    const auto run = [&](bool tape) {
      trace::RingRecorder ring(tape_records);
      trace::Recorder* sink = tape ? &ring : nullptr;
      if (sink != nullptr) sink->begin_connection("serve:prior-knowledge");
      server::Http2Server server(profile, site,
                                 server::Http2Server::StartMode::kTls, sink);
      server.set_header_block_cache(true);
      server.set_shared_block_cache(tape ? &taped_blocks : &bare_blocks);
      server.record_received_frames(true);
      core::ClientConnection client(client_opts);
      open_load_windows(client);
      replay_connection(client, server, *site, path, ops, streams, analyse,
                        ordinal, tape ? spans : nullptr,
                        tape ? out.taped : out.bare);
    };
    run(ordinal % 2 == 1);
    run(ordinal % 2 == 0);
  }
  return out;
}

}  // namespace h2r::bench
