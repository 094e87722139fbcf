// Coalesced probe scheduling: one connection per site, many probes.
//
// The paper's scanner opens a fresh connection per measurement so no probe
// contaminates another's HPACK or flow-control state. Most probes don't
// actually need that isolation — they only need to *start* from a known
// state. ProbeSession keeps a single ClientConnection open against a
// target and runs every probe whose semantics allow it as streams over
// that connection, restoring the relevant state (window stances, SETTINGS)
// between phases. Probes that genuinely require a pristine connection —
// negotiation, the zero/tiny-window probes, the WINDOW_UPDATE reaction
// probes — keep their fresh-connection implementations in probes.h; the
// needs_fresh_connection() trait records which is which.
//
// Equivalence is a hard requirement, not an aspiration: a coalesced scan
// must produce a ScanReport bitwise identical to the sequential one
// (tests/scan_coalesce_test.cc asserts this). Whenever the shared
// connection can't reproduce a fresh probe's observations — it died, a
// server reaction poisoned it, or a precondition check failed — the
// session falls back to the fresh-connection probe for that measurement
// and stops sharing.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/client.h"
#include "core/probes.h"
#include "net/transport.h"
#include "server/engine.h"

namespace h2r::core {

/// The probes of Section III, as schedulable units.
enum class ProbeKind : std::uint8_t {
  kNegotiation,
  kH2cUpgrade,
  kSettings,
  kMultiplexing,
  kConcurrencyLimit,
  kDataFrameControl,
  kZeroWindowHeaders,
  kWindowUpdateReactions,
  kPriority,
  kSelfDependency,
  kPush,
  kHpackRatio,
  kPing,
};

/// True when a probe's method only makes sense on a connection of its own:
/// it negotiates the connection itself, plants SETTINGS that must be in the
/// *preface* (tiny/zero initial windows), provokes reactions that kill the
/// connection mid-measurement, or measures connection-scoped timing. The
/// remaining probes start from the default stance a shared connection can
/// restore, so ProbeSession runs them as streams of one connection.
[[nodiscard]] constexpr bool needs_fresh_connection(ProbeKind kind) noexcept {
  switch (kind) {
    case ProbeKind::kSettings:
    case ProbeKind::kPriority:
    case ProbeKind::kSelfDependency:
    case ProbeKind::kPush:
    case ProbeKind::kHpackRatio:
      return false;
    default:
      return true;
  }
}

/// Reusable endpoint slots: the scan's per-worker scratch hands the same
/// client and engine to every site's ProbeSession, which rewinds them with
/// reset() instead of reconstructing (keeping their transport buffers and
/// the engine's shared profile/site machinery warm). A default-constructed
/// scratch simply means "allocate on first use".
struct SessionScratch {
  std::optional<ClientConnection> client;
  std::optional<server::Http2Server> server;
};

class ProbeSession {
 public:
  struct Options {
    /// H of Equation 1; also the baseline request count (at least one).
    /// Below 1 hpack_ratio() reports ran = false, as probe_hpack_ratio does.
    int hpack_h = 8;
    /// When false the baseline makes a single request (enough for the
    /// settings and push observations) and hpack_ratio() falls back to the
    /// fresh-connection probe. The scan sets this from its per-family
    /// Figure 4/5 filter so non-HPACK sites don't pay for H requests.
    bool expect_hpack = true;
  };

  /// @p target must outlive the session. @p scratch may be null (the
  /// session then owns its endpoints privately).
  explicit ProbeSession(const Target& target);
  ProbeSession(const Target& target, Options options,
               SessionScratch* scratch = nullptr);

  // Each accessor runs its probe on first call (lazily establishing the
  // shared connection) and is safe to call at most once per session; all
  // return values match the corresponding probes.h free function on this
  // target, field for field.
  [[nodiscard]] SettingsProbeResult settings();
  [[nodiscard]] PriorityProbeResult priority();
  [[nodiscard]] SelfDependencyProbeResult self_dependency();
  [[nodiscard]] PushProbeResult push();
  [[nodiscard]] HpackProbeResult hpack_ratio();

 private:
  /// Establishes the shared connection and performs the baseline fetches:
  /// max(1, Options::hpack_h) sequential GETs of "/" (one when
  /// !expect_hpack) — the byte-identical prefix of the fresh settings /
  /// push / hpack probe conversations, observed once instead of three
  /// times.
  void ensure_baseline();

  const Target& target_;
  Options options_;
  SessionScratch own_;        // backing storage when no scratch was passed
  SessionScratch* scratch_;   // where client/server actually live
  std::unique_ptr<net::Transport> transport_;
  std::vector<std::uint32_t> baseline_streams_;
  bool baseline_done_ = false;
  /// The baseline ran to quiescence with the connection healthy; the
  /// settings/push/hpack readouts (pure functions of the baseline traffic)
  /// are trustworthy.
  bool baseline_clean_ = false;
  /// The connection is still fit for *further* phases (priority, self-dep).
  /// Cleared by any fallback or death so one bad phase can't contaminate
  /// the next — subsequent probes revert to fresh connections.
  bool shared_ok_ = false;
};

}  // namespace h2r::core
