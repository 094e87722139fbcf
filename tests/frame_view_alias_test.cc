// The non-copying parse paths: FrameParser::next_view() must validate
// frames in place — its body span aliasing the reassembly buffer, no
// payload copy — while materialize() reproduces, bit for bit, what next()
// has always returned. FrameParser::drain() must yield exactly what
// feed() + next_view() yield, however the bytes are split, while reading
// each delivery only during its own call. Run under ASan (the asan-ubsan
// CI job runs the full suite) this also proves the views' documented
// validity windows are honoured by the parser itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "h2/constants.h"
#include "h2/frame.h"
#include "h2/frame_codec.h"
#include "h2/frame_view.h"

namespace h2r::h2 {
namespace {

Bytes pattern_bytes(std::size_t n, std::uint8_t start) {
  Bytes out(n);
  std::iota(out.begin(), out.end(), start);
  return out;
}

std::vector<Frame> sample_frames() {
  std::vector<Frame> frames;
  frames.push_back(make_settings({{SettingId::kInitialWindowSize, 1u << 20},
                                  {SettingId::kMaxConcurrentStreams, 128}}));
  frames.push_back(make_settings_ack());
  frames.push_back(make_headers(1, pattern_bytes(40, 3), /*end_stream=*/false,
                                /*end_headers=*/false,
                                PriorityInfo{.dependency = 0,
                                             .weight_field = 201,
                                             .exclusive = true}));
  frames.push_back(make_continuation(1, pattern_bytes(17, 9), true));
  frames.push_back(make_data(1, pattern_bytes(333, 0), /*end_stream=*/true));
  frames.push_back(make_priority(3, {.dependency = 1, .weight_field = 15}));
  frames.push_back(make_rst_stream(3, ErrorCode::kCancel));
  frames.push_back(make_push_promise(1, 2, pattern_bytes(25, 40)));
  frames.push_back(make_ping({1, 2, 3, 4, 5, 6, 7, 8}));
  frames.push_back(make_window_update(0, 0x7FFF0000));
  frames.push_back(make_goaway(5, ErrorCode::kEnhanceYourCalm, "debug-data"));
  return frames;
}

// next_view() + materialize() and next() must yield identical frames —
// compared on the wire, where every payload detail shows up — whether the
// bytes arrive in one block or one octet at a time.
TEST(FrameViewAlias, MaterializedViewsMatchOwningParsePath) {
  const Bytes wire = serialize_frames(sample_frames());

  FrameParser owning;
  owning.feed(wire);
  FrameParser viewing;
  for (std::uint8_t b : wire) viewing.feed({&b, 1});  // worst-case trickle

  std::size_t count = 0;
  for (;;) {
    auto classic = owning.next();
    auto view = viewing.next_view();
    ASSERT_EQ(classic.has_value(), view.has_value());
    if (!classic) break;
    ASSERT_TRUE(classic->ok());
    ASSERT_TRUE(view->ok());
    const Frame from_view = materialize(view->value());
    EXPECT_EQ(serialize_frame(classic->value()), serialize_frame(from_view));
    EXPECT_EQ(classic->value().flags, from_view.flags);
    EXPECT_EQ(classic->value().stream_id, from_view.stream_id);
    ++count;
  }
  EXPECT_EQ(count, sample_frames().size());
  EXPECT_EQ(viewing.buffered_bytes(), owning.buffered_bytes());
}

// The body span of a view points into the parser's buffer: two frames fed
// as one block yield views whose payloads sit exactly one frame header
// apart in the same allocation. (Frame 2 dwarfs frame 1 so the lazy
// compaction between the calls doesn't trigger and move the buffer.)
TEST(FrameViewAlias, BodySpanAliasesReassemblyBuffer) {
  const Bytes small = pattern_bytes(16, 1);
  const Bytes big = pattern_bytes(4000, 7);
  Bytes wire = serialize_frame(make_data(1, small, false));
  const Bytes second = serialize_frame(make_data(1, big, true));
  wire.insert(wire.end(), second.begin(), second.end());

  FrameParser parser;
  parser.feed(wire);

  auto first = parser.next_view();
  ASSERT_TRUE(first && first->ok());
  const auto p1 = reinterpret_cast<std::uintptr_t>(first->value().body.data());
  ASSERT_EQ(first->value().body.size(), small.size());

  auto next = parser.next_view();
  ASSERT_TRUE(next && next->ok());
  const FrameView& view = next->value();
  const auto p2 = reinterpret_cast<std::uintptr_t>(view.body.data());
  // payload2 starts (payload1 size + one 9-octet header) after payload1.
  EXPECT_EQ(p2 - p1, small.size() + 9);

  EXPECT_EQ(view.type(), FrameType::kData);
  EXPECT_TRUE(view.has_flag(flags::kEndStream));
  EXPECT_EQ(view.payload_wire_octets, big.size());
  ASSERT_EQ(view.body.size(), big.size());
  // Read every aliased octet while the view is valid — ASan checks this
  // stays inside the live buffer.
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < big.size(); ++i) {
    mismatches += (view.body[i] != big[i]) ? 1 : 0;
  }
  EXPECT_EQ(mismatches, 0u);
}

// Padding is stripped from the aliased body but still counted by the
// flow-control length, same as the owning path.
TEST(FrameViewAlias, PaddedDataBodyIsUnpadded) {
  const Bytes data = pattern_bytes(20, 60);
  constexpr std::uint8_t kPad = 7;
  ByteWriter out;
  write_frame_header(out, 1 + data.size() + kPad, FrameType::kData,
                     flags::kPadded | flags::kEndStream, 5);
  out.write_u8(kPad);
  out.write_bytes(data);
  out.write_zeros(kPad);
  const Bytes wire = out.take();

  FrameParser parser;
  parser.feed(wire);
  auto view = parser.next_view();
  ASSERT_TRUE(view && view->ok());
  EXPECT_EQ(view->value().payload_wire_octets, 1 + data.size() + kPad);
  ASSERT_EQ(view->value().body.size(), data.size());
  EXPECT_TRUE(std::equal(data.begin(), data.end(), view->value().body.begin()));

  const Frame frame = materialize(view->value());
  ASSERT_TRUE(frame.is<DataPayload>());
  EXPECT_EQ(frame.as<DataPayload>().data, data);
}

// Error semantics are shared: the same malformed input poisons a
// next_view() parser with the same status and error context as next().
TEST(FrameViewAlias, ViewPathPoisonsLikeOwningPath) {
  ByteWriter out;
  // RST_STREAM payload must be exactly 4 octets; send 3.
  write_frame_header(out, 3, FrameType::kRstStream, 0, 1);
  out.write_zeros(3);
  const Bytes wire = out.take();

  FrameParser owning;
  owning.feed(wire);
  FrameParser viewing;
  viewing.feed(wire);

  auto classic = owning.next();
  auto view = viewing.next_view();
  ASSERT_TRUE(classic && view);
  ASSERT_FALSE(classic->ok());
  ASSERT_FALSE(view->ok());
  EXPECT_EQ(classic->status().message(), view->status().message());

  ASSERT_TRUE(viewing.error_context().has_value());
  ASSERT_TRUE(owning.error_context().has_value());
  EXPECT_EQ(viewing.error_context()->frame_offset,
            owning.error_context()->frame_offset);
  EXPECT_EQ(viewing.error_context()->frame_type,
            owning.error_context()->frame_type);

  // Poison is sticky on both paths.
  auto again = viewing.next_view();
  ASSERT_TRUE(again);
  EXPECT_FALSE(again->ok());
}

// ---------------------------------------------------------------- drain()

/// Everything a caller can observe of one parsed frame, copied out of the
/// view while it is valid.
struct Seen {
  std::uint8_t type = 0;
  std::uint8_t flags = 0;
  std::uint32_t stream_id = 0;
  std::uint32_t wire_octets = 0;
  Bytes body;
  std::optional<PriorityInfo> priority;
  std::uint32_t promised = 0;
  std::uint32_t last_stream = 0;
  ErrorCode error = ErrorCode::kNoError;
  std::uint32_t increment = 0;

  explicit Seen(const FrameView& v)
      : type(v.raw_type),
        flags(v.flags),
        stream_id(v.stream_id),
        wire_octets(v.payload_wire_octets),
        body(v.body.begin(), v.body.end()),
        priority(v.priority),
        promised(v.promised_stream_id),
        last_stream(v.last_stream_id),
        error(v.error),
        increment(v.increment) {}

  friend bool operator==(const Seen&, const Seen&) = default;
};

struct Outcome {
  std::vector<Seen> frames;
  std::optional<StatusCode> code;
  std::string message;
  std::optional<ParseErrorContext> context;
  std::uint64_t fed_total = 0;
};

void expect_same(const Outcome& got, const Outcome& want,
                 const std::string& how) {
  SCOPED_TRACE(how);
  ASSERT_EQ(got.frames.size(), want.frames.size());
  for (std::size_t i = 0; i < want.frames.size(); ++i) {
    EXPECT_TRUE(got.frames[i] == want.frames[i]) << "frame " << i;
  }
  EXPECT_EQ(got.code, want.code);
  EXPECT_EQ(got.message, want.message);
  ASSERT_EQ(got.context.has_value(), want.context.has_value());
  if (want.context) {
    EXPECT_EQ(got.context->frame_offset, want.context->frame_offset);
    EXPECT_EQ(got.context->frame_type, want.context->frame_type);
    EXPECT_EQ(got.context->type_known, want.context->type_known);
  }
  EXPECT_EQ(got.fed_total, want.fed_total);
}

/// The copying path: the whole wire fed at once, then next_view() until it
/// runs dry or fails.
Outcome parse_by_feed(const Bytes& wire) {
  FrameParser parser;
  parser.feed(wire);
  Outcome out;
  while (auto next = parser.next_view()) {
    if (!next->ok()) {
      out.code = next->status().code();
      out.message = next->status().message();
      break;
    }
    out.frames.emplace_back(next->value());
  }
  out.context = parser.error_context();
  out.fed_total = parser.fed_total();
  return out;
}

/// Wire offsets at which a frame starts, as its headers say, plus the end
/// of the wire when the last frame is complete.
std::vector<std::size_t> frame_starts(const Bytes& wire) {
  std::vector<std::size_t> starts;
  std::size_t pos = 0;
  while (pos < wire.size()) {
    starts.push_back(pos);
    if (wire.size() - pos < kFrameHeaderSize) break;
    pos += kFrameHeaderSize +
           ((std::size_t{wire[pos]} << 16) | (std::size_t{wire[pos + 1]} << 8) |
            wire[pos + 2]);
  }
  if (pos == wire.size()) starts.push_back(pos);
  return starts;
}

/// The borrowing path: each delivery copied into its own exact-size heap
/// block that is freed as soon as drain() returns, so ASan fails any later
/// read through a span the parser kept. After every call on a healthy
/// stream the parser must hold exactly the unfinished frame's octets.
Outcome parse_by_drain(const Bytes& wire, const std::vector<std::size_t>& cuts) {
  const std::vector<std::size_t> starts = frame_starts(wire);
  FrameParser parser;
  Outcome out;
  std::size_t from = 0;
  for (std::size_t i = 0; i <= cuts.size(); ++i) {
    const std::size_t to = i < cuts.size() ? cuts[i] : wire.size();
    const std::size_t n = to - from;
    auto chunk = std::make_unique<std::uint8_t[]>(n);
    if (n > 0) std::memcpy(chunk.get(), wire.data() + from, n);
    const Status status =
        parser.drain({chunk.get(), n}, [&](const FrameView& view) {
          out.frames.emplace_back(view);
          return true;
        });
    chunk.reset();
    from = to;
    if (!status.ok()) {
      if (!out.code) {
        out.code = status.code();
        out.message = status.message();
      }
      continue;  // keep delivering: fed_total still counts every octet
    }
    const auto last = std::upper_bound(starts.begin(), starts.end(), to);
    const std::size_t held = last == starts.begin() ? 0 : to - *std::prev(last);
    EXPECT_EQ(parser.buffered_bytes(), held) << "after octet " << to;
  }
  out.context = parser.error_context();
  out.fed_total = parser.fed_total();
  return out;
}

/// One of every frame shape whose view carries something: padded DATA,
/// HEADERS+PRIORITY, HEADERS+CONTINUATION, SETTINGS, PING, GOAWAY with
/// debug data, PUSH_PROMISE, WINDOW_UPDATE and an unknown type.
Bytes varied_wire() {
  ByteWriter out;
  serialize_frame_into(out, make_settings({{SettingId::kInitialWindowSize, 1u << 20},
                                           {SettingId::kMaxConcurrentStreams, 128}}));
  const Bytes data = pattern_bytes(20, 60);
  write_frame_header(out, 1 + data.size() + 7, FrameType::kData, flags::kPadded, 1);
  out.write_u8(7);
  out.write_bytes(data);
  out.write_zeros(7);
  serialize_frame_into(
      out, make_headers(3, pattern_bytes(30, 5), /*end_stream=*/true,
                        /*end_headers=*/true,
                        PriorityInfo{.dependency = 1, .weight_field = 42,
                                     .exclusive = true}));
  serialize_frame_into(out, make_headers(5, pattern_bytes(40, 3), false,
                                         /*end_headers=*/false));
  serialize_frame_into(out, make_continuation(5, pattern_bytes(17, 9), true));
  serialize_frame_into(out, make_ping({1, 2, 3, 4, 5, 6, 7, 8}));
  serialize_frame_into(out, make_push_promise(1, 2, pattern_bytes(25, 40)));
  serialize_frame_into(out, make_window_update(0, 0x7FFF0000));
  write_frame_header(out, 5, static_cast<FrameType>(0x42), 0xA5, 7);
  out.write_bytes(pattern_bytes(5, 200));
  serialize_frame_into(out, make_data(1, pattern_bytes(333, 0), true));
  serialize_frame_into(out, make_goaway(5, ErrorCode::kEnhanceYourCalm, "debug-data"));
  return out.take();
}

/// varied_wire() followed by one bad frame and one good frame after it.
Bytes oversized_wire() {
  ByteWriter out;
  out.write_bytes(varied_wire());
  write_frame_header(out, kDefaultMaxFrameSize + 1, FrameType::kData, 0, 1);
  out.write_bytes(pattern_bytes(100, 0));
  return out.take();
}

Bytes bad_settings_wire() {
  ByteWriter out;
  out.write_bytes(varied_wire());
  write_frame_header(out, 7, FrameType::kSettings, 0, 0);
  out.write_zeros(7);
  serialize_frame_into(out, make_ping({8, 7, 6, 5, 4, 3, 2, 1}));
  return out.take();
}

Bytes truncated_wire() {
  Bytes wire = varied_wire();
  wire.resize(wire.size() - 5);
  return wire;
}

std::vector<std::pair<std::string, Bytes>> drain_wires() {
  return {{"varied", varied_wire()},
          {"oversized", oversized_wire()},
          {"bad_settings", bad_settings_wire()},
          {"truncated", truncated_wire()}};
}

TEST(FrameViewDrain, WholeDeliveryMatchesFeed) {
  for (const auto& [name, wire] : drain_wires()) {
    const Outcome want = parse_by_feed(wire);
    expect_same(parse_by_drain(wire, {}), want, name + " whole");
  }
  // The error wires really do fail, and at the bad frame's header.
  EXPECT_EQ(parse_by_feed(oversized_wire()).context->frame_offset,
            varied_wire().size());
  EXPECT_EQ(parse_by_feed(bad_settings_wire()).context->frame_offset,
            varied_wire().size());
  EXPECT_FALSE(parse_by_feed(truncated_wire()).code.has_value());
}

TEST(FrameViewDrain, EveryTwoWaySplitMatchesFeed) {
  for (const auto& [name, wire] : drain_wires()) {
    const Outcome want = parse_by_feed(wire);
    for (std::size_t cut = 0; cut <= wire.size(); ++cut) {
      expect_same(parse_by_drain(wire, {cut}), want,
                  name + " split at " + std::to_string(cut));
    }
  }
}

TEST(FrameViewDrain, SampledThreeWaySplitsMatchFeed) {
  std::mt19937 rng(20170605);
  for (const auto& [name, wire] : drain_wires()) {
    const Outcome want = parse_by_feed(wire);
    std::uniform_int_distribution<std::size_t> pick(0, wire.size());
    for (int i = 0; i < 300; ++i) {
      std::size_t a = pick(rng);
      std::size_t b = pick(rng);
      if (a > b) std::swap(a, b);
      expect_same(parse_by_drain(wire, {a, b}), want,
                  name + " split at " + std::to_string(a) + "," +
                      std::to_string(b));
    }
  }
}

std::vector<std::size_t> even_cuts(std::size_t size, std::size_t step) {
  std::vector<std::size_t> cuts;
  for (std::size_t at = step; at < size; at += step) cuts.push_back(at);
  return cuts;
}

TEST(FrameViewDrain, OneOctetTrickleMatchesFeed) {
  for (const auto& [name, wire] : drain_wires()) {
    expect_same(parse_by_drain(wire, even_cuts(wire.size(), 1)),
                parse_by_feed(wire), name + " trickle");
  }
}

// Socket-sized deliveries over full-size DATA frames: most frames straddle
// a 16 KiB read boundary, and each is completed from the next read.
TEST(FrameViewDrain, SixteenKiBChunksMatchFeed) {
  ByteWriter out;
  for (int i = 0; i < 6; ++i) {
    out.write_bytes(varied_wire());
    serialize_frame_into(
        out, make_data(1, pattern_bytes(kDefaultMaxFrameSize - 3 * i,
                                        static_cast<std::uint8_t>(i)),
                       false));
  }
  const Bytes wire = out.take();
  expect_same(parse_by_drain(wire, even_cuts(wire.size(), 16 * 1024)),
              parse_by_feed(wire), "16 KiB chunks");
}

// A callback that stops early leaves the unparsed rest with the parser, so
// a later drain() picks up exactly where the walk stopped.
TEST(FrameViewDrain, EarlyStopKeepsTheUnparsedRest) {
  const Bytes wire = varied_wire();
  const Outcome want = parse_by_feed(wire);
  ASSERT_GT(want.frames.size(), 4u);
  for (const std::size_t cut : {std::size_t{0}, std::size_t{50}}) {
    FrameParser parser;
    Outcome got;
    const auto keep = [&](const FrameView& view) {
      got.frames.emplace_back(view);
      return got.frames.size() != 2 && got.frames.size() != 4;
    };
    EXPECT_TRUE(parser.drain({wire.data(), cut}, keep).ok());
    EXPECT_TRUE(
        parser.drain({wire.data() + cut, wire.size() - cut}, keep).ok());
    ASSERT_EQ(got.frames.size(), 2u);
    EXPECT_TRUE(parser.drain({}, keep).ok());
    ASSERT_EQ(got.frames.size(), 4u);
    EXPECT_TRUE(parser.drain({}, keep).ok());
    got.fed_total = parser.fed_total();
    expect_same(got, want, "early stop, cut at " + std::to_string(cut));
    EXPECT_EQ(parser.buffered_bytes(), 0u);
  }
}

}  // namespace
}  // namespace h2r::h2
