// ClientConnection unit tests: the observation vocabulary every probe is
// built from must itself be trustworthy.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/client.h"
#include "net/transport.h"
#include "server/engine.h"

namespace h2r::core {
namespace {

using server::Http2Server;
using server::Site;

Http2Server make_server() {
  return Http2Server(server::h2o_profile(), Site::standard_testbed_site());
}

/// The net::Transport replacement for the retired run_exchange shim: one
/// lockstep connection pump, wired to the client's recorder.
void pump(ClientConnection& client, Http2Server& server) {
  net::LockstepTransport(client.recorder()).run(client, server);
}

TEST(Client, EmitsPrefaceAndSettingsFirst) {
  ClientConnection client;
  const Bytes out = client.take_output();
  ASSERT_GT(out.size(), h2::kClientPreface.size());
  EXPECT_EQ(std::string(out.begin(),
                        out.begin() + static_cast<std::ptrdiff_t>(
                                          h2::kClientPreface.size())),
            h2::kClientPreface);
  h2::FrameParser parser;
  parser.feed({out.data() + h2::kClientPreface.size(),
               out.size() - h2::kClientPreface.size()});
  auto first = parser.next();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(first->ok());
  EXPECT_EQ(first->value().type(), h2::FrameType::kSettings);
}

TEST(Client, PlantsRequestedSettings) {
  ClientConnection client(
      {.settings = {{h2::SettingId::kInitialWindowSize, 1},
                    {h2::SettingId::kEnablePush, 0}}});
  const Bytes out = client.take_output();
  h2::FrameParser parser;
  parser.feed({out.data() + h2::kClientPreface.size(),
               out.size() - h2::kClientPreface.size()});
  auto first = parser.next();
  ASSERT_TRUE(first.has_value() && first->ok());
  const auto& entries = first->value().as<h2::SettingsPayload>().entries;
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].first, 0x4);
  EXPECT_EQ(entries[0].second, 1u);
}

TEST(Client, StreamIdsAreOddAndIncreasing) {
  ClientConnection client;
  EXPECT_EQ(client.send_request("/a"), 1u);
  EXPECT_EQ(client.send_request("/b"), 3u);
  EXPECT_EQ(client.send_request("/c"), 5u);
  EXPECT_EQ(client.last_stream_id(), 5u);
}

TEST(Client, EventsPreserveArrivalOrderAndSequence) {
  auto server = make_server();
  ClientConnection client;
  client.send_request("/small");
  pump(client, server);
  const auto& events = client.events();
  ASSERT_GE(events.size(), 3u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].sequence, i);
  }
  // SETTINGS arrives before any response frame.
  EXPECT_EQ(events[0].frame.type(), h2::FrameType::kSettings);
}

TEST(Client, FramesOfFiltersByTypeAndStream) {
  auto server = make_server();
  ClientConnection client;
  const auto a = client.send_request("/small");
  const auto b = client.send_request("/style.css");
  pump(client, server);
  const auto data_a = client.frames_of(h2::FrameType::kData, a);
  const auto data_b = client.frames_of(h2::FrameType::kData, b);
  const auto all_data = client.frames_of(h2::FrameType::kData);
  EXPECT_FALSE(data_a.empty());
  EXPECT_FALSE(data_b.empty());
  EXPECT_EQ(all_data.size(), data_a.size() + data_b.size());
  for (const auto* ev : data_a) EXPECT_EQ(ev->frame.stream_id, a);
}

TEST(Client, RecordsServerSettingsAndAcks) {
  auto server = make_server();
  ClientConnection client;
  pump(client, server);
  EXPECT_TRUE(client.server_settings_received());
  EXPECT_EQ(client.server_settings().max_frame_size(), 16'777'215u);
  EXPECT_GT(client.server_settings_entry_count(), 0u);
}

TEST(Client, AnswersServerPing) {
  // If the *server* pinged us we must ACK — exercised via a raw frame.
  ClientConnection client;
  const Bytes ping = h2::serialize_frame(h2::make_ping({1, 2, 3, 4, 5, 6, 7, 8}));
  client.receive(ping);
  const Bytes out = client.take_output();
  // Skip preface + SETTINGS, find the PING ACK.
  h2::FrameParser parser;
  parser.feed({out.data() + h2::kClientPreface.size(),
               out.size() - h2::kClientPreface.size()});
  bool saw_ack = false;
  while (auto f = parser.next()) {
    ASSERT_TRUE(f->ok());
    if (f->value().type() == h2::FrameType::kPing &&
        f->value().has_flag(h2::flags::kAck)) {
      saw_ack = true;
    }
  }
  EXPECT_TRUE(saw_ack);
}

TEST(Client, ParseErrorPoisonsConnection) {
  ClientConnection client;
  // A 7-octet PING violates §6.7's fixed length: FRAME_SIZE_ERROR.
  Bytes bogus = {0x00, 0x00, 0x07, 0x06, 0x00, 0x00, 0x00, 0x00, 0x00,
                 1,    2,    3,    4,    5,    6,    7};
  client.receive(bogus);
  EXPECT_FALSE(client.alive());
}

TEST(Client, RstRecordsCode) {
  ClientConnection client;
  client.receive(h2::serialize_frame(
      h2::make_rst_stream(5, h2::ErrorCode::kEnhanceYourCalm)));
  EXPECT_EQ(client.rst_on(5),
            std::optional<h2::ErrorCode>(h2::ErrorCode::kEnhanceYourCalm));
  EXPECT_EQ(client.rst_on(7), std::nullopt);
}

TEST(Client, GoawayRecordsCodeAndDebug) {
  ClientConnection client;
  client.receive(h2::serialize_frame(
      h2::make_goaway(9, h2::ErrorCode::kProtocolError, "boom")));
  ASSERT_TRUE(client.goaway_received());
  EXPECT_EQ(client.goaway()->last_stream_id, 9u);
  EXPECT_EQ(std::string(client.goaway()->debug_data.begin(),
                        client.goaway()->debug_data.end()),
            "boom");
}

TEST(Client, AutoWindowUpdatesCanBeDisabledIndependently) {
  // Connection updates off, stream updates on: the server can refill
  // streams but the connection window eventually starves.
  auto server = make_server();
  ClientOptions opts;
  opts.auto_connection_window_update = false;
  opts.auto_stream_window_update = true;
  ClientConnection client(opts);
  const auto sid = client.send_request("/large/0");  // 512 KiB
  pump(client, server);
  EXPECT_EQ(client.data_received(sid), h2::kDefaultInitialWindowSize);
  EXPECT_FALSE(client.stream_complete(sid));
}

/// Everything the server sent one client over a lockstep exchange, in
/// order. Connection-window updates are off, so the server stops after one
/// 64 KiB window of DATA: the transcript holds full-size DATA frames,
/// several header blocks and pushes without growing large.
Bytes server_transcript(std::vector<std::uint32_t>& streams) {
  auto server = make_server();
  ClientConnection client(
      {.settings = {}, .auto_connection_window_update = false});
  streams = {client.send_request("/"), client.send_request("/small"),
             client.send_request("/large/0")};
  Bytes transcript;
  for (int round = 0; round < 64; ++round) {
    const Bytes c2s = client.take_output();
    if (!c2s.empty()) server.receive(c2s);
    const Bytes s2c = server.take_output();
    if (c2s.empty() && s2c.empty()) break;
    transcript.insert(transcript.end(), s2c.begin(), s2c.end());
    client.receive(s2c);
  }
  return transcript;
}

/// A fresh client fed @p wire in @p piece-octet deliveries (0 = whole).
ClientConnection replay(const Bytes& wire, std::size_t piece) {
  ClientConnection client(
      {.settings = {}, .auto_connection_window_update = false});
  const std::size_t step = piece == 0 ? wire.size() : piece;
  for (std::size_t at = 0; at < wire.size(); at += step) {
    client.receive({wire.data() + at, std::min(step, wire.size() - at)});
  }
  return client;
}

void expect_same_observations(const ClientConnection& got,
                              const ClientConnection& want,
                              const std::vector<std::uint32_t>& streams) {
  ASSERT_EQ(got.events().size(), want.events().size());
  for (std::size_t i = 0; i < want.events().size(); ++i) {
    const ReceivedFrame& g = got.events()[i];
    const ReceivedFrame& w = want.events()[i];
    EXPECT_EQ(g.sequence, w.sequence);
    EXPECT_EQ(g.header_block_size, w.header_block_size) << "event " << i;
    EXPECT_EQ(h2::serialize_frame(g.frame), h2::serialize_frame(w.frame))
        << "event " << i;
    EXPECT_EQ(g.headers, w.headers) << "event " << i;
  }
  for (const std::uint32_t sid : streams) {
    EXPECT_EQ(got.data_received(sid), want.data_received(sid));
    EXPECT_EQ(got.stream_complete(sid), want.stream_complete(sid));
  }
  EXPECT_EQ(got.alive(), want.alive());
  EXPECT_EQ(got.terminal().state, want.terminal().state);
  EXPECT_EQ(got.terminal().status.code(), want.terminal().status.code());
  EXPECT_EQ(got.terminal().status.message(), want.terminal().status.message());
  EXPECT_EQ(got.terminal().byte_offset, want.terminal().byte_offset);
  EXPECT_EQ(got.terminal().frame_type, want.terminal().frame_type);
  EXPECT_EQ(got.terminal().frame_type_known, want.terminal().frame_type_known);
}

/// Start offset of the @p n-th frame in @p wire.
std::size_t nth_frame_start(const Bytes& wire, std::size_t n) {
  std::size_t pos = 0;
  for (std::size_t i = 0; i < n; ++i) {
    pos += h2::kFrameHeaderSize +
           ((std::size_t{wire[pos]} << 16) | (std::size_t{wire[pos + 1]} << 8) |
            wire[pos + 2]);
  }
  return pos;
}

// Frames that straddle deliveries are completed from the next one: a
// server's response handed over whole, in 7-octet pieces and one octet at
// a time leaves the client with identical observations.
TEST(Client, ObservationsDoNotDependOnDeliveryBoundaries) {
  std::vector<std::uint32_t> streams;
  const Bytes wire = server_transcript(streams);
  ASSERT_GT(wire.size(), h2::kDefaultInitialWindowSize);

  const ClientConnection whole = replay(wire, 0);
  ASSERT_GE(whole.events().size(), 8u);
  ASSERT_GT(whole.data_received(streams[2]), 0u);
  ASSERT_TRUE(whole.stream_complete(streams[1]));
  EXPECT_EQ(whole.terminal().state, ClientTerminal::kQuiescent);
  for (const std::size_t piece : {std::size_t{7}, std::size_t{1}}) {
    SCOPED_TRACE("pieces of " + std::to_string(piece));
    expect_same_observations(replay(wire, piece), whole, streams);
  }
}

// A stream that dies inside a frame, or turns malformed at a frame, ends
// in the same terminal state at the same octet offset however it arrived.
TEST(Client, TerminalOffsetsDoNotDependOnDeliveryBoundaries) {
  std::vector<std::uint32_t> streams;
  const Bytes wire = server_transcript(streams);

  // Truncated 100 octets into the sixth frame.
  const Bytes cut(wire.begin(),
                  wire.begin() + static_cast<std::ptrdiff_t>(
                                     nth_frame_start(wire, 5) + 100));
  // A 7-octet PING (§6.7 FRAME_SIZE_ERROR) spliced in before the sixth frame.
  const Bytes bad = [&] {
    const auto at =
        wire.begin() + static_cast<std::ptrdiff_t>(nth_frame_start(wire, 5));
    Bytes out(wire.begin(), at);
    const Bytes ping = {0x00, 0x00, 0x07, 0x06, 0x00, 0x00, 0x00, 0x00, 0x00,
                        1,    2,    3,    4,    5,    6,    7};
    out.insert(out.end(), ping.begin(), ping.end());
    out.insert(out.end(), at, wire.end());
    return out;
  }();

  for (const Bytes* input : {&cut, &bad}) {
    std::vector<ClientConnection> runs;
    for (const std::size_t piece :
         {std::size_t{0}, std::size_t{7}, std::size_t{1}}) {
      runs.push_back(replay(*input, piece));
      runs.back().on_transport_close(UnavailableError("peer went away"));
    }
    const TerminalInfo& t = runs[0].terminal();
    if (input == &cut) {
      EXPECT_EQ(t.state, ClientTerminal::kTransportError);
      EXPECT_EQ(t.byte_offset, cut.size());
    } else {
      EXPECT_EQ(t.state, ClientTerminal::kProtocolError);
      EXPECT_EQ(t.byte_offset, nth_frame_start(wire, 5));
      EXPECT_EQ(t.frame_type, 0x06);
    }
    for (std::size_t i = 1; i < runs.size(); ++i) {
      SCOPED_TRACE("run " + std::to_string(i));
      expect_same_observations(runs[i], runs[0], streams);
    }
  }
}

}  // namespace
}  // namespace h2r::core
