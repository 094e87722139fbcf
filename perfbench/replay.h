// Socket-free replay of an op mix: server::Http2Server and
// core::ClientConnection over net::LockstepTransport, with the time spent
// inside each endpoint measured separately. Optionally the bytes each side
// put on the wire are captured per batch and run back through the public
// frame parser (h2) and HPACK coder (hpack), one table per connection and
// direction, to attribute those layers' cost per op.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/client.h"
#include "perfbench/spans.h"
#include "server/engine.h"

namespace h2r::bench {

struct ReplayTotals {
  std::uint64_t ops = 0;     ///< pages completed
  std::uint64_t failed = 0;  ///< pages that did not complete whole
  std::uint64_t pushes = 0;  ///< PUSH_PROMISEs on completed pages
  std::uint64_t server_ns = 0;  ///< inside Http2Server calls, ops only
  std::uint64_t client_ns = 0;  ///< inside ClientConnection calls, ops only
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;

  /// Server time per op over each connection's first and last tenth of
  /// ops, summed across connections (engine_age_ratio's inputs).
  double first_ns = 0, first_ops = 0, last_ns = 0, last_ops = 0;

  // Capture analysis (ops of analysed connections only).
  std::uint64_t analysed_ops = 0;
  std::uint64_t frames = 0;         ///< server-to-client frames parsed
  std::uint64_t header_octets = 0;  ///< header-block octets, both ways
  std::uint64_t parse_ns = 0;       ///< frame parser over s2c bytes
  std::uint64_t decode_ns = 0;      ///< hpack::Decoder, both directions
  std::uint64_t encode_ns = 0;      ///< hpack::Encoder, both directions
  bool analysis_error = false;

  [[nodiscard]] double age_ratio() const noexcept {
    if (first_ops <= 0 || last_ops <= 0 || first_ns <= 0) return 0;
    return (last_ns / last_ops) / (first_ns / first_ops);
  }
};

/// The load client's stance, h2load's default: stream and connection
/// windows of 2^30-1 octets announced up front (SETTINGS plus one
/// connection WINDOW_UPDATE, see open_load_windows), so responses never
/// wait for a WINDOW_UPDATE and the client sends none per DATA frame.
/// Response bodies are counted, not kept.
[[nodiscard]] core::ClientOptions load_client_options();
/// Queues the connection-window raise; call once on a fresh connection.
void open_load_windows(core::ClientConnection& client);

/// Runs one connection: a handshake exchange (not counted as op work),
/// then @p ops requests for @p path with at most @p streams pages in
/// flight, refilled after every lockstep batch. With @p analyse, each
/// batch's bytes go through the h2/hpack analysis too. Spans (when
/// @p spans is non-null): one "replay_op" per batch with "engine", "h2"
/// and "hpack" children.
void replay_connection(core::ClientConnection& client,
                       server::Http2Server& server, const server::Site& site,
                       const std::string& path, int ops, int streams,
                       bool analyse, std::uint32_t ordinal, SpanLog* spans,
                       ReplayTotals& totals);

struct ServeReplay {
  ReplayTotals taped;  ///< per-connection RingRecorder attached
  ReplayTotals bare;   ///< no recorder
};

/// The serve op mix replayed the way one ServeLoop shard wires its
/// engines: shared profile and site, response header-block cache with a
/// shared static-block tier, received frames recorded. Every connection
/// runs twice, with a @p tape_records-record tape and without, in
/// alternating order so drift in machine speed hits both sides alike.
/// Connections that start before @p analyse_ops ops were analysed get the
/// capture analysis (both sides, so both do the same work). Spans are
/// recorded for the taped side only.
ServeReplay replay_serve(const std::string& profile_key,
                         const std::string& path, int streams,
                         const std::vector<int>& ops_per_connection,
                         std::size_t tape_records, std::uint64_t analyse_ops,
                         SpanLog* spans);

}  // namespace h2r::bench
