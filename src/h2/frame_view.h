// Non-owning view of one parsed frame (RFC 7540 §4.1-4.2, §6).
//
// `FrameParser::drain()` and `FrameParser::next_view()` validate a frame in
// place and hand out a FrameView: small fixed fields (priority info, error
// codes, window increments) are decoded eagerly, variable-length payloads
// (DATA bytes, header-block fragments, GOAWAY debug data) stay where they
// lie. With drain(), which the engine and client use, that is the
// transport's own delivery buffer (or the parser's buffer for the one frame
// that straddled two deliveries), so a 512 KiB DATA frame costs a span, not
// a heap copy. With next_view() it is the parser's reassembly buffer.
// `materialize()` converts a view into the classic owning `Frame` —
// bit-identical to what `FrameParser::next()` has always produced — for
// callers that must keep the frame beyond the view's lifetime (event logs,
// tests).
//
// Lifetime rule: a view and every span taken from it are valid only inside
// the drain() callback that received it, or until the parser's next
// feed()/drain()/next()/next_view() call for a view from next_view().
#pragma once

#include <optional>
#include <span>

#include "h2/frame.h"

namespace h2r::h2 {

struct FrameView {
  std::uint8_t raw_type = 0;
  std::uint8_t flags = 0;
  std::uint32_t stream_id = 0;
  /// Payload length field from the 9-octet header — the flow-controlled
  /// size for DATA, including any padding that `body` has stripped.
  std::uint32_t payload_wire_octets = 0;
  /// Type-specific variable-length payload, unpadded, aliasing the bytes
  /// the frame was parsed from: DATA bytes, HEADERS/PUSH_PROMISE/
  /// CONTINUATION header-block fragment (after the fixed prefix), raw
  /// SETTINGS entries, PING opaque octets, GOAWAY debug data, or an unknown
  /// frame's payload. Valid only as long as the view (see the lifetime
  /// rule above).
  std::span<const std::uint8_t> body;

  std::optional<PriorityInfo> priority;   ///< PRIORITY, HEADERS+PRIORITY
  std::uint32_t promised_stream_id = 0;   ///< PUSH_PROMISE
  std::uint32_t last_stream_id = 0;       ///< GOAWAY
  ErrorCode error = ErrorCode::kNoError;  ///< RST_STREAM, GOAWAY
  std::uint32_t increment = 0;            ///< WINDOW_UPDATE

  [[nodiscard]] FrameType type() const noexcept {
    return static_cast<FrameType>(raw_type);
  }
  [[nodiscard]] bool known_type() const noexcept {
    return raw_type <= static_cast<std::uint8_t>(FrameType::kContinuation);
  }
  [[nodiscard]] bool has_flag(std::uint8_t bit) const noexcept {
    return (flags & bit) != 0;
  }

  [[nodiscard]] std::size_t settings_entry_count() const noexcept {
    return body.size() / 6;
  }
  /// (identifier, value) of the i-th SETTINGS entry; caller bounds-checks
  /// against settings_entry_count().
  [[nodiscard]] std::pair<std::uint16_t, std::uint32_t> setting_at(
      std::size_t i) const noexcept {
    const std::uint8_t* p = body.data() + i * 6;
    const auto id = static_cast<std::uint16_t>((p[0] << 8) | p[1]);
    const std::uint32_t value = (static_cast<std::uint32_t>(p[2]) << 24) |
                                (static_cast<std::uint32_t>(p[3]) << 16) |
                                (static_cast<std::uint32_t>(p[4]) << 8) |
                                static_cast<std::uint32_t>(p[5]);
    return {id, value};
  }
};

/// Owning Frame built from a view — the copies happen here, and only for
/// callers that ask.
[[nodiscard]] Frame materialize(const FrameView& view);

}  // namespace h2r::h2
