// Probe-suite integration tests: each probe, run against the testbed
// profiles, must reproduce the corresponding cell of the paper's Table III.
#include <gtest/gtest.h>

#include "core/probes.h"
#include "core/report.h"

namespace h2r::core {
namespace {

Target testbed(const std::string& key) {
  return Target::testbed(server::profile_by_key(key));
}

TEST(NegotiationProbe, ApacheLacksNpn) {
  auto apache = probe_negotiation(testbed("apache"));
  EXPECT_TRUE(apache.alpn_h2);
  EXPECT_FALSE(apache.npn_h2);
  EXPECT_TRUE(apache.h2_established);
  auto nginx = probe_negotiation(testbed("nginx"));
  EXPECT_TRUE(nginx.alpn_h2);
  EXPECT_TRUE(nginx.npn_h2);
}

TEST(NegotiationProbe, NonH2SiteFailsToEstablish) {
  Target t = testbed("nginx");
  t.profile.tls.protocols = {net::kProtoHttp11};
  auto r = probe_negotiation(t);
  EXPECT_FALSE(r.h2_established);
}

TEST(H2cProbe, UpgradeFollowsProfileFlag) {
  Target yes = testbed("nghttpd");
  yes.profile.supports_h2c = true;
  auto r1 = probe_h2c_upgrade(yes);
  EXPECT_TRUE(r1.switched);
  EXPECT_EQ(r1.status_line, "HTTP/1.1 101 Switching Protocols");

  Target no = testbed("nginx");
  no.profile.supports_h2c = false;
  auto r2 = probe_h2c_upgrade(no);
  EXPECT_FALSE(r2.switched);
  EXPECT_EQ(r2.status_line, "HTTP/1.1 200 OK");
}

TEST(SettingsProbe, ReadsAnnouncedValues) {
  auto r = probe_settings(testbed("h2o"));
  EXPECT_TRUE(r.headers_received);
  EXPECT_EQ(r.max_concurrent_streams, std::optional<std::uint32_t>(100));
  EXPECT_EQ(r.initial_window_size, std::optional<std::uint32_t>(16'777'216));
  EXPECT_EQ(r.max_frame_size, std::optional<std::uint32_t>(16'777'215));
  EXPECT_EQ(r.max_header_list_size, std::nullopt);  // unlimited
  EXPECT_EQ(r.server_header, "h2o/1.6.2");
}

TEST(SettingsProbe, SeesNginxZeroWindowIdiom) {
  auto r = probe_settings(testbed("nginx"));
  EXPECT_EQ(r.initial_window_size, std::optional<std::uint32_t>(0));
  EXPECT_GT(r.preemptive_window_bonus, 0u);
  EXPECT_EQ(r.server_header, "nginx/1.9.15");
}

TEST(MultiplexingProbe, AllTestbedServersInterleave) {
  for (const auto& p : server::testbed_profiles()) {
    auto r = probe_multiplexing(Target::testbed(p));
    EXPECT_TRUE(r.supported) << p.key;
    EXPECT_EQ(r.streams_completed, 4) << p.key;
  }
}

TEST(MultiplexingProbe, FcfsAblationDoesNotInterleave) {
  Target t = testbed("h2o");
  t.profile.scheduler = server::SchedulerKind::kFcfs;
  auto r = probe_multiplexing(t);
  EXPECT_FALSE(r.supported);
  EXPECT_EQ(r.streams_completed, 4);  // everything arrives, just serially
  EXPECT_EQ(r.interleave_switches, 3);
}

TEST(ConcurrencyLimitProbe, RefusalsMatchPaper) {
  // §V-A last paragraph (measured on Nginx/Tengine).
  for (const std::string key : {"nginx", "tengine"}) {
    auto r = probe_concurrency_limit(testbed(key));
    EXPECT_TRUE(r.refused_when_zero) << key;
    EXPECT_TRUE(r.refused_second_when_one) << key;
  }
}

TEST(DataFrameControlProbe, TestbedServersRespectSframe) {
  for (const auto& p : server::testbed_profiles()) {
    auto r = probe_data_frame_control(Target::testbed(p));
    EXPECT_EQ(r.outcome, SmallWindowOutcome::kRespectsWindow) << p.key;
    EXPECT_EQ(r.first_data_size, 1u) << p.key;
  }
}

TEST(DataFrameControlProbe, DetectsWildVariants) {
  Target zero = testbed("h2o");
  zero.profile.small_window_behavior =
      server::SmallWindowBehavior::kZeroLengthData;
  EXPECT_EQ(probe_data_frame_control(zero).outcome,
            SmallWindowOutcome::kZeroLengthData);

  Target stall = testbed("litespeed");
  stall.profile.small_window_behavior = server::SmallWindowBehavior::kStall;
  EXPECT_EQ(probe_data_frame_control(stall).outcome,
            SmallWindowOutcome::kNoResponse);
}

TEST(ZeroWindowHeadersProbe, OnlyLiteSpeedWithholdsHeaders) {
  for (const auto& p : server::testbed_profiles()) {
    auto r = probe_zero_window_headers(Target::testbed(p));
    if (p.key == "litespeed") {
      EXPECT_FALSE(r.headers_received) << p.key;
    } else {
      EXPECT_TRUE(r.headers_received) << p.key;
    }
    EXPECT_FALSE(r.data_received) << p.key;
  }
}

TEST(WindowUpdateProbe, ZeroUpdateReactionsMatchTable3) {
  const std::map<std::string, UpdateReaction> expected_stream = {
      {"nginx", UpdateReaction::kIgnored},
      {"litespeed", UpdateReaction::kRstStream},
      {"h2o", UpdateReaction::kRstStream},
      {"nghttpd", UpdateReaction::kGoaway},
      {"tengine", UpdateReaction::kIgnored},
      {"apache", UpdateReaction::kGoaway},
  };
  const std::map<std::string, UpdateReaction> expected_conn = {
      {"nginx", UpdateReaction::kIgnored},
      {"litespeed", UpdateReaction::kGoaway},
      {"h2o", UpdateReaction::kGoaway},
      {"nghttpd", UpdateReaction::kGoaway},
      {"tengine", UpdateReaction::kIgnored},
      {"apache", UpdateReaction::kGoaway},
  };
  for (const auto& p : server::testbed_profiles()) {
    auto r = probe_window_update_reactions(Target::testbed(p));
    EXPECT_EQ(r.zero_on_stream, expected_stream.at(p.key)) << p.key;
    EXPECT_EQ(r.zero_on_connection, expected_conn.at(p.key)) << p.key;
  }
}

TEST(WindowUpdateProbe, LargeUpdateReactionsUniformAcrossTestbed) {
  // Table III: every server answers overflow with RST_STREAM (stream) and
  // GOAWAY (connection).
  for (const auto& p : server::testbed_profiles()) {
    auto r = probe_window_update_reactions(Target::testbed(p));
    EXPECT_EQ(r.large_on_stream, UpdateReaction::kRstStream) << p.key;
    EXPECT_EQ(r.large_on_connection, UpdateReaction::kGoaway) << p.key;
  }
}

TEST(WindowUpdateProbe, DebugDataVariantSurfacesText) {
  Target t = testbed("h2o");
  t.profile.zero_window_update_stream = server::ErrorReaction::kGoawayWithDebug;
  auto r = probe_window_update_reactions(t);
  EXPECT_EQ(r.zero_on_stream, UpdateReaction::kGoawayWithDebug);
  EXPECT_EQ(r.zero_debug_data, "window update shouldn't be zero");
}

TEST(PriorityProbe, PassFailMatchesTable3) {
  const std::map<std::string, bool> expected = {
      {"nginx", false},   {"litespeed", false}, {"h2o", true},
      {"nghttpd", true},  {"tengine", false},   {"apache", true},
  };
  for (const auto& p : server::testbed_profiles()) {
    auto r = probe_priority_mechanism(Target::testbed(p));
    EXPECT_TRUE(r.ran) << p.key;
    EXPECT_EQ(r.passes(), expected.at(p.key)) << p.key;
  }
}

TEST(PriorityProbe, FairShareSchedulerPassesLastRuleOnly) {
  // The wild-corpus servers behind the "1,147 / 2,187 sites by last-DATA"
  // numbers of SectionV-E1.
  Target t = testbed("h2o");
  t.profile.scheduler = server::SchedulerKind::kFairShare;
  auto r = probe_priority_mechanism(t);
  ASSERT_TRUE(r.ran);
  EXPECT_TRUE(r.pass_by_last_data);
  EXPECT_FALSE(r.pass_by_first_data);
  EXPECT_FALSE(r.passes());
}

TEST(PriorityProbe, PriorityStartSchedulerPassesFirstRuleOnly) {
  Target t = testbed("h2o");
  t.profile.scheduler = server::SchedulerKind::kPriorityStart;
  auto r = probe_priority_mechanism(t);
  ASSERT_TRUE(r.ran);
  EXPECT_TRUE(r.pass_by_first_data);
  EXPECT_FALSE(r.pass_by_last_data);
  EXPECT_FALSE(r.passes());
}

TEST(PriorityProbe, PassingServersSatisfyBothOrderings) {
  auto r = probe_priority_mechanism(testbed("nghttpd"));
  EXPECT_TRUE(r.pass_by_first_data);
  EXPECT_TRUE(r.pass_by_last_data);
}

TEST(SelfDependencyProbe, ReactionsMatchTable3) {
  const std::map<std::string, UpdateReaction> expected = {
      {"nginx", UpdateReaction::kRstStream},
      {"litespeed", UpdateReaction::kIgnored},
      {"h2o", UpdateReaction::kGoaway},
      {"nghttpd", UpdateReaction::kGoaway},
      {"tengine", UpdateReaction::kRstStream},
      {"apache", UpdateReaction::kGoaway},
  };
  for (const auto& p : server::testbed_profiles()) {
    auto r = probe_self_dependency(Target::testbed(p));
    EXPECT_EQ(r.reaction, expected.at(p.key)) << p.key;
  }
}

TEST(PushProbe, SupportMatchesTable3) {
  const std::map<std::string, bool> expected = {
      {"nginx", false},  {"litespeed", false}, {"h2o", true},
      {"nghttpd", true}, {"tengine", false},   {"apache", true},
  };
  for (const auto& p : server::testbed_profiles()) {
    auto r = probe_server_push(Target::testbed(p));
    EXPECT_EQ(r.push_received, expected.at(p.key)) << p.key;
    if (r.push_received) {
      EXPECT_EQ(r.pushed_paths.size(), 3u) << p.key;
      EXPECT_GT(r.pushed_bytes, 0u) << p.key;
    }
  }
}

TEST(PushProbe, NoPushOnNonFrontPage) {
  auto r = probe_server_push(testbed("h2o"), "/small");
  EXPECT_FALSE(r.push_received);  // §V-F: only front pages push
}

TEST(HpackProbe, AggressiveServersCompressWell) {
  for (const std::string key : {"h2o", "nghttpd", "apache", "litespeed"}) {
    auto r = probe_hpack_ratio(testbed(key));
    ASSERT_TRUE(r.ran) << key;
    EXPECT_LT(r.ratio, 0.45) << key;  // paper: well below 1
    // Followers are dramatically smaller than the first block.
    EXPECT_LT(r.header_sizes.back(), r.header_sizes.front() / 3) << key;
  }
}

TEST(HpackProbe, NginxTengineRatioIsOne) {
  for (const std::string key : {"nginx", "tengine"}) {
    auto r = probe_hpack_ratio(testbed(key));
    ASSERT_TRUE(r.ran) << key;
    EXPECT_DOUBLE_EQ(r.ratio, 1.0) << key;  // §V-G: 93.5% of Nginx at r=1
  }
}

TEST(HpackProbe, CookieChurnPushesRatioAboveOne) {
  // Churn only exceeds 1 on servers that don't index response headers —
  // indexed later blocks would otherwise shrink below the first.
  Target t = testbed("nginx");
  t.site.set_cookie_churn(true);
  auto r = probe_hpack_ratio(t);
  ASSERT_TRUE(r.ran);
  EXPECT_GT(r.ratio, 1.0);  // the sites the paper filters out (§V-G)
}

TEST(HpackProbe, NoRequestsMeasuresNothing) {
  // Equation 1 divides by S_1, so H < 1 has no ratio to report.
  for (const int h : {0, -1}) {
    const auto r = probe_hpack_ratio(testbed("h2o"), h);
    EXPECT_FALSE(r.ran) << h;
    EXPECT_TRUE(r.header_sizes.empty()) << h;
  }
}

TEST(PingProbe, AllTestbedServersAnswer) {
  Rng rng(1);
  for (const auto& p : server::testbed_profiles()) {
    auto r = probe_ping(Target::testbed(p), 4, rng);
    EXPECT_TRUE(r.supported) << p.key;
    EXPECT_EQ(r.h2_ping_ms.size(), 4u) << p.key;
  }
}

TEST(PingProbe, Http11EstimateIsSlower) {
  Rng rng(2);
  auto r = probe_ping(testbed("nginx"), 32, rng);
  double ping_avg = 0, http_avg = 0;
  for (double v : r.h2_ping_ms) ping_avg += v;
  for (double v : r.http11_ms) http_avg += v;
  EXPECT_GT(http_avg / 32, ping_avg / 32 + 10);  // think time dominates
}

TEST(Characterize, ReproducesTable3Columns) {
  // End-to-end: the full characterization of each testbed server must equal
  // the corresponding Table III column, cell for cell.
  using Row = std::vector<std::string>;
  const std::map<std::string, Row> expected = {
      {"nginx",
       {"support", "support", "support", "yes", "no", "ignore", "ignore",
        "GOAWAY", "RST_STREAM", "no", "fail", "RST_STREAM", "support*",
        "support"}},
      {"litespeed",
       {"support", "support", "support", "yes", "yes", "RST_STREAM", "GOAWAY",
        "GOAWAY", "RST_STREAM", "no", "fail", "ignore", "support", "support"}},
      {"h2o",
       {"support", "support", "support", "yes", "no", "RST_STREAM", "GOAWAY",
        "GOAWAY", "RST_STREAM", "yes", "pass", "GOAWAY", "support", "support"}},
      {"nghttpd",
       {"support", "support", "support", "yes", "no", "GOAWAY", "GOAWAY",
        "GOAWAY", "RST_STREAM", "yes", "pass", "GOAWAY", "support", "support"}},
      {"tengine",
       {"support", "support", "support", "yes", "no", "ignore", "ignore",
        "GOAWAY", "RST_STREAM", "no", "fail", "RST_STREAM", "support*",
        "support"}},
      {"apache",
       {"support", "no support", "support", "yes", "no", "GOAWAY", "GOAWAY",
        "GOAWAY", "RST_STREAM", "yes", "pass", "GOAWAY", "support", "support"}},
  };
  Rng rng(3);
  for (const auto& p : server::testbed_profiles()) {
    const auto c = characterize(Target::testbed(p), rng);
    EXPECT_EQ(c.row_values(), expected.at(p.key)) << p.key;
  }
}

}  // namespace
}  // namespace h2r::core
