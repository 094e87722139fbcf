// Frame <-> bytes conversion (RFC 7540 §4.1-4.2, §6).
//
// `serialize_frame` is pure. `FrameParser` is incremental: hand it arbitrary
// byte chunks (as a transport delivers them) and take complete frames out.
// Violations that RFC 7540 defines as connection errors (oversized frames,
// malformed fixed-size payloads, bad padding) surface as error Results.
//
// Two entry points share one frame walker. `drain()` parses frames where
// the delivery already lies and copies only a frame that straddles its end;
// the endpoints use it. `feed()` + `next()`/`next_view()` copy every octet
// into the parser first, so callers may hand over temporaries and poll later.
#pragma once

#include <deque>
#include <optional>
#include <utility>

#include "h2/frame.h"
#include "h2/frame_view.h"
#include "util/bytes.h"
#include "util/status.h"

namespace h2r::h2 {

/// Serializes one frame, including its 9-octet header, appending to @p out.
/// This is the zero-copy path: endpoints serialize straight into their
/// transport output buffer instead of materializing a per-frame vector.
/// Returns the number of octets written (the frame's wire length).
std::size_t serialize_frame_into(ByteWriter& out, const Frame& frame);

/// Writes just the 9-octet frame header (§4.1). The engine's DATA emission
/// fast path writes this and then synthesizes the payload directly into
/// @p out, skipping the intermediate Frame entirely.
void write_frame_header(ByteWriter& out, std::size_t length, FrameType type,
                        std::uint8_t flagbits, std::uint32_t stream_id);

/// Serializes one frame, including its 9-octet header.
/// Throws std::invalid_argument for unserializable model states (payload
/// larger than 2^24-1, pad >= payload+1, increments with the reserved bit).
Bytes serialize_frame(const Frame& frame);

/// Serializes a sequence of frames back-to-back.
Bytes serialize_frames(std::span<const Frame> frames);

/// Where in the inbound byte stream a parse error happened — kept by the
/// parser so the connection's error taxonomy (and the wiretap parse_error
/// event) can name the offending frame instead of just "parse error".
struct ParseErrorContext {
  /// Octet offset, from the first octet ever fed, of the frame whose
  /// header or payload failed to parse.
  std::uint64_t frame_offset = 0;
  /// Raw type octet from the offending frame header.
  std::uint8_t frame_type = 0;
  /// False when the stream died before a full 9-octet header was read
  /// (frame_type is meaningless then).
  bool type_known = false;
};

/// Incremental parser for one direction of a connection.
class FrameParser {
 public:
  /// @param max_frame_size our advertised SETTINGS_MAX_FRAME_SIZE: inbound
  ///        frames longer than this are FRAME_SIZE_ERRORs.
  explicit FrameParser(std::uint32_t max_frame_size = kDefaultMaxFrameSize);

  /// Appends transport bytes to the internal reassembly buffer.
  void feed(std::span<const std::uint8_t> bytes);

  /// Parses @p bytes in place, calling `on_view(const FrameView&)` for each
  /// complete frame in stream order. A view, and every span derived from
  /// it, aliases @p bytes (or the parser's buffer for a frame that began in
  /// an earlier delivery) and is valid only inside that callback; the
  /// caller's bytes are not referenced once drain() returns.
  ///
  /// Only the octets of a trailing partial frame are copied, and the next
  /// call tops that frame up with exactly its missing octets before going
  /// on in place, so between calls the parser holds at most one partial
  /// frame. When `on_view` returns false (the endpoint died) the unparsed
  /// rest is kept, as feed() would keep it. Returns OK, or the status that poisons the
  /// stream: the same status, error_context() and fed_total() as feeding
  /// the same bytes and polling next_view() until it fails.
  template <typename OnView>
  Status drain(std::span<const std::uint8_t> bytes, OnView&& on_view);

  /// Extracts the next complete frame.
  /// - nullopt: need more bytes.
  /// - Result with error: stream is poisoned (connection error); subsequent
  ///   calls keep returning the same error.
  [[nodiscard]] std::optional<Result<Frame>> next();

  /// Non-owning variant of next(): validates the frame in place and returns
  /// a FrameView whose `body` aliases the internal buffer. The view (and
  /// any spans derived from it) is valid only until the next call to
  /// feed(), drain(), next() or next_view(). Error semantics are identical
  /// to next(): the same inputs poison the stream with the same status.
  [[nodiscard]] std::optional<Result<FrameView>> next_view();

  /// Raises the acceptable frame size (after the peer ACKs our SETTINGS).
  void set_max_frame_size(std::uint32_t size) { max_frame_size_ = size; }

  [[nodiscard]] std::size_t buffered_bytes() const noexcept { return buf_.size(); }

  /// Total octets ever fed to this parser (consumed or still buffered).
  [[nodiscard]] std::uint64_t fed_total() const noexcept { return fed_total_; }

  /// Populated once the parser poisons; empty while the stream is healthy.
  [[nodiscard]] const std::optional<ParseErrorContext>& error_context()
      const noexcept {
    return error_context_;
  }

 private:
  enum class Front : std::uint8_t { kIncomplete, kFrame, kPoisoned };

  /// The one frame walker: validates the frame at the front of @p avail,
  /// whose first octet is stream offset @p offset, into @p view. An error
  /// poisons the parser and records its ParseErrorContext.
  [[nodiscard]] Front parse_front(std::span<const std::uint8_t> avail,
                                  std::uint64_t offset, FrameView& view);

  /// Moves from the front of @p bytes into buf_ exactly the octets that
  /// the buffered partial frame still lacks (its header first, then, if
  /// the length is acceptable, its payload). Returns the rest of @p bytes.
  std::span<const std::uint8_t> top_up(std::span<const std::uint8_t> bytes);

  /// Validates one frame's payload and decodes it into @p view.
  [[nodiscard]] Status parse_view(std::uint8_t type, std::uint8_t flagbits,
                                  std::uint32_t stream_id,
                                  std::span<const std::uint8_t> payload,
                                  FrameView& view);

  std::vector<std::uint8_t> buf_;
  std::size_t consumed_ = 0;  // bytes of buf_ already parsed
  std::uint64_t fed_total_ = 0;  // octets ever fed (for error offsets)
  std::uint32_t max_frame_size_;
  std::optional<Status> poisoned_;
  std::optional<ParseErrorContext> error_context_;
};

template <typename OnView>
Status FrameParser::drain(std::span<const std::uint8_t> bytes,
                         OnView&& on_view) {
  fed_total_ += bytes.size();
  if (poisoned_) return *poisoned_;
  FrameView view;
  // Frames held from earlier deliveries come first: top the partial one up
  // from the front of this delivery, then walk the rest in place.
  while (consumed_ < buf_.size()) {
    bytes = top_up(bytes);
    const std::span<const std::uint8_t> held(buf_.data() + consumed_,
                                             buf_.size() - consumed_);
    switch (parse_front(held, fed_total_ - bytes.size() - held.size(), view)) {
      case Front::kIncomplete:
        return OkStatus();  // top_up took every octet
      case Front::kPoisoned:
        return *poisoned_;
      case Front::kFrame:
        break;
    }
    consumed_ += kFrameHeaderSize + view.payload_wire_octets;
    if (!on_view(std::as_const(view))) {
      buf_.insert(buf_.end(), bytes.begin(), bytes.end());
      return OkStatus();
    }
  }
  consumed_ = 0;
  for (;;) {
    const Front front = parse_front(bytes, fed_total_ - bytes.size(), view);
    if (front == Front::kIncomplete) break;
    if (front == Front::kPoisoned) return *poisoned_;
    bytes = bytes.subspan(kFrameHeaderSize + view.payload_wire_octets);
    if (!on_view(std::as_const(view))) break;
  }
  // The straddling tail, or the unparsed rest after an early stop.
  buf_.assign(bytes.begin(), bytes.end());
  return OkStatus();
}

}  // namespace h2r::h2
