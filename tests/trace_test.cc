// H2Wiretap determinism and aggregation tests.
//
// The subsystem's whole value rests on two properties: (1) identical probe
// runs produce byte-identical JSONL traces, so traces can be diffed across
// code versions, and (2) metrics aggregation is independent of how the
// scan was sharded across H2R_THREADS workers, so reports are comparable
// across machines.
#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "core/report.h"
#include "corpus/population.h"
#include "net/clock.h"
#include "corpus/scan.h"
#include "server/profile.h"
#include "trace/annotate.h"
#include "trace/event.h"
#include "trace/metrics.h"
#include "trace/recorder.h"
#include "util/rng.h"

namespace h2r::trace {
namespace {

// ------------------------------------------------------------- event model

TEST(TraceEvent, JsonlHasStableFieldOrderAndEscaping) {
  TraceEvent ev;
  ev.seq = 3;
  ev.dir = Direction::kServerToClient;
  ev.kind = EventKind::kFrame;
  ev.stream_id = 5;
  ev.frame_type = 0x0;  // DATA
  ev.flags = 0x1;
  ev.wire_length = 17;
  ev.detail_a = 8;
  ev.note = "quote\" and \\slash";
  ev.tags = {"a-tag"};

  std::string line;
  append_jsonl(line, ev, "host.test");
  EXPECT_EQ(line,
            "{\"site\":\"host.test\",\"seq\":3,\"t\":0.000,\"dir\":\"s2c\","
            "\"kind\":\"frame\",\"stream\":5,\"type\":\"DATA\",\"flags\":1,"
            "\"len\":17,\"a\":8,\"b\":0,\"note\":\"quote\\\" and "
            "\\\\slash\",\"tags\":[\"a-tag\"]}\n");
}

TEST(TraceRecorder, NullSinkIsSafeAndVectorSinkStampsSequence) {
  Recorder* none = nullptr;
  begin(none, "ignored");  // null-safe helper: must be a no-op

  VectorRecorder rec;
  rec.begin_connection("c1");
  rec.record({.kind = EventKind::kRoundMark});
  ASSERT_EQ(rec.events().size(), 2u);
  EXPECT_EQ(rec.events()[0].kind, EventKind::kConnectionStart);
  EXPECT_EQ(rec.events()[0].seq, 0u);
  EXPECT_EQ(rec.events()[0].note, "c1");
  EXPECT_EQ(rec.events()[1].seq, 1u);
  EXPECT_EQ(rec.events_recorded(), 2u);

  // clear() restarts numbering: a reused sink's trace is indistinguishable
  // from a fresh one's.
  rec.clear();
  rec.begin_connection("c2");
  ASSERT_EQ(rec.events().size(), 1u);
  EXPECT_EQ(rec.events()[0].seq, 0u);
  EXPECT_EQ(rec.events()[0].note, "c2");
}

TEST(TraceRecorder, StringTableInternsAndSurvivesClear) {
  StringTable table;
  EXPECT_EQ(table.at(0), "");  // ref 0 is always the empty string
  const std::uint32_t a = table.intern("alpha");
  const std::uint32_t b = table.intern("beta");
  EXPECT_NE(a, 0u);
  EXPECT_NE(a, b);
  EXPECT_EQ(table.intern("alpha"), a);  // equal strings share one ref
  EXPECT_EQ(table.at(a), "alpha");
  EXPECT_EQ(table.at(b), "beta");
  // Enough distinct notes to force at least one rehash.
  for (int i = 0; i < 100; ++i) {
    const std::string s = "note-" + std::to_string(i);
    const std::uint32_t ref = table.intern(s);
    EXPECT_EQ(table.at(ref), s);
    EXPECT_EQ(table.intern(s), ref);
  }
  EXPECT_EQ(table.intern("alpha"), a);  // still stable after growth
  table.clear();
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.at(0), "");
}

// -------------------------------------------------------- ring semantics

TEST(RingRecorder, BoundedRingEvictsOldestFirstAndCountsDrops) {
  RingRecorder ring(/*capacity=*/4);
  for (std::uint32_t i = 0; i < 7; ++i) {
    ring.record({.kind = EventKind::kRoundMark, .detail_a = i});
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.drops(), 3u);       // records 0..2 evicted, oldest first
  EXPECT_EQ(ring.first_seq(), 3u);   // oldest retained record's seq
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring.at(i).detail_a, 3u + i) << i;
  }

  std::vector<TraceEvent> decoded = ring.decode();
  ASSERT_EQ(decoded.size(), 4u);
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    EXPECT_EQ(decoded[i].seq, 3u + i);       // seq survives eviction
    EXPECT_EQ(decoded[i].detail_a, 3u + i);  // newest four, in order
  }

  // clear() resets retention, the drop counter, and numbering.
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.drops(), 0u);
  ring.record({.kind = EventKind::kRoundMark, .detail_a = 9});
  EXPECT_EQ(ring.decode().at(0).seq, 0u);
}

TEST(RingRecorder, UnboundedTapeRetainsEverythingAndInternsNotes) {
  RingRecorder tape;  // capacity 0 = unbounded
  tape.begin_connection("conn-a");
  for (int i = 0; i < 1000; ++i) {
    tape.record({.kind = EventKind::kRoundMark,
                 .detail_a = static_cast<std::uint32_t>(i),
                 .note = "repeated-note"});
  }
  EXPECT_EQ(tape.size(), 1001u);
  EXPECT_EQ(tape.drops(), 0u);
  EXPECT_EQ(tape.first_seq(), 0u);
  EXPECT_EQ(tape.note_at(0), "conn-a");
  EXPECT_EQ(tape.note_at(1), "repeated-note");
  // One interned copy serves every repeat.
  EXPECT_EQ(tape.at(1).note_ref, tape.at(1000).note_ref);
}

TEST(RingRecorder, ReplayIntoPreservesTimeAndRestampsSequence) {
  net::VirtualClock clock;
  RingRecorder tape;
  tape.set_clock(&clock);
  clock.advance_ms(12.5);
  tape.record({.kind = EventKind::kRoundMark, .detail_a = 1});
  clock.advance_ms(2.25);
  tape.record({.kind = EventKind::kRoundMark, .detail_a = 2, .note = "n"});

  VectorRecorder sink;
  sink.begin_connection("pre-existing");  // flush appends after prior events
  tape.replay_into(sink);
  ASSERT_EQ(sink.events().size(), 3u);
  EXPECT_EQ(sink.events()[1].seq, 1u);  // sink stamps fresh sequence numbers
  EXPECT_EQ(sink.events()[2].seq, 2u);
  EXPECT_EQ(sink.events()[1].time_ms, 12.5);  // record's own timestamp kept
  EXPECT_EQ(sink.events()[2].time_ms, 14.75);
  EXPECT_EQ(sink.events()[2].note, "n");
  EXPECT_EQ(sink.events()[2].detail_a, 2u);
}

/// A seeded record stream: connection markers with labels (some seen once,
/// so they can live only in evicted records), frames with occasional notes
/// from a small vocabulary, and arbitrary timestamps.
std::vector<std::pair<WireRecord, std::string>> seeded_stream(
    std::size_t n, std::uint64_t seed) {
  static constexpr const char* kVocab[] = {"", "", "", "NO_ERROR",
                                           "PROTOCOL_ERROR", "fault:stall"};
  Rng rng(seed);
  std::vector<std::pair<WireRecord, std::string>> out;
  for (std::size_t i = 0; i < n; ++i) {
    WireRecord rec;
    rec.time_bits = rng.next_u64();
    rec.stream_id = static_cast<std::uint32_t>(rng.next_below(64));
    rec.wire_length = static_cast<std::uint32_t>(rng.next_below(1 << 16));
    rec.detail_a = static_cast<std::uint32_t>(rng.next_u64());
    std::string note;
    if (rng.next_below(9) == 0) {
      rec.kind = static_cast<std::uint8_t>(EventKind::kConnectionStart);
      note = "conn-" + std::to_string(rng.next_below(n / 4 + 1));
    } else {
      rec.kind = static_cast<std::uint8_t>(EventKind::kFrame);
      rec.frame_type = static_cast<std::uint8_t>(rng.next_below(10));
      note = kVocab[rng.next_below(std::size(kVocab))];
    }
    out.emplace_back(rec, std::move(note));
  }
  return out;
}

TEST(RingRecorder, RetentionReportsCapacityAndZeroForUnbounded) {
  EXPECT_EQ(RingRecorder(7).retention(), 7u);
  EXPECT_EQ(RingRecorder().retention(), 0u);
  EXPECT_EQ(VectorRecorder().retention(), 0u);
}

TEST(RingRecorder, BoundedSegmentTapesMergeToTheDirectSinksBytes) {
  for (const std::size_t capacity : {0u, 1u, 7u, 4096u}) {
    // Segment sizes below, equal to and above the capacity (an unbounded
    // capacity gets small, middling and large segments instead).
    const std::size_t sizes[] = {capacity == 0 ? 5 : capacity / 2,
                                 capacity == 0 ? 64 : capacity,
                                 capacity == 0 ? 300 : 2 * capacity + 3};
    for (std::size_t segments = 1; segments <= 4; ++segments) {
      for (std::size_t shift = 0; shift < std::size(sizes); ++shift) {
        std::vector<std::size_t> cut;
        std::size_t total = 0;
        for (std::size_t j = 0; j < segments; ++j) {
          cut.push_back(sizes[(shift + j) % std::size(sizes)]);
          total += cut.back();
        }
        const auto stream = seeded_stream(total, 31 * segments + shift);

        RingRecorder direct(capacity);
        for (const auto& [rec, note] : stream) direct.replay_record(rec, note);

        RingRecorder merged(capacity);
        std::size_t at = 0;
        for (const std::size_t len : cut) {
          RingRecorder tape(merged.retention());
          for (std::size_t i = at; i < at + len; ++i) {
            tape.replay_record(stream[i].first, stream[i].second);
          }
          at += len;
          merged.skip_records(tape.drops(), tape.notes());
          tape.replay_into(merged);
        }

        const std::string where = "capacity " + std::to_string(capacity) +
                                  " segments " + std::to_string(segments) +
                                  " shift " + std::to_string(shift);
        EXPECT_EQ(merged.events_recorded(), direct.events_recorded()) << where;
        EXPECT_EQ(merged.drops(), direct.drops()) << where;
        EXPECT_EQ(merged.size() + merged.drops(), total) << where;
        std::string want;
        std::string got;
        direct.serialize(want);
        merged.serialize(got);
        EXPECT_EQ(got, want) << where;
      }
    }
  }
}

TEST(MetricsRegistry, TraceDropsMergeAndConditionalExport) {
  MetricsRegistry a;
  MetricsRegistry b;
  // Zero drops stay invisible: snapshots from drop-free runs are
  // byte-identical to the pre-ring exporter's.
  EXPECT_EQ(a.to_json().find("trace_drops"), std::string::npos);
  EXPECT_EQ(a.to_text().find("trace ring drops"), std::string::npos);

  a.trace_drops = 2;
  b.trace_drops = 3;
  a.merge(b);
  EXPECT_EQ(a.trace_drops, 5u);  // fieldwise sum: shard-count independent
  EXPECT_NE(a.to_json().find("\"trace_drops\":5"), std::string::npos);
  EXPECT_NE(a.to_text().find("trace ring drops 5"), std::string::npos);
}

// ------------------------------------------------------ binary dump format

TEST(TraceBinaryDump, SerializeParsesBackToIdenticalEvents) {
  net::VirtualClock clock;
  RingRecorder ring(/*capacity=*/3);
  ring.set_clock(&clock);
  ring.begin_connection("will-be-evicted");
  clock.advance_ms(1.125);
  for (std::uint32_t i = 0; i < 3; ++i) {
    ring.record({.dir = Direction::kServerToClient,
                 .kind = EventKind::kFrame,
                 .stream_id = 2 * i + 1,
                 .frame_type = 0x0,
                 .flags = 0x1,
                 .wire_length = 17 + i,
                 .detail_a = 8,
                 .note = i == 2 ? "tail-note" : ""});
  }

  std::string bytes;
  ring.serialize(bytes);

  std::vector<TraceEvent> parsed;
  std::uint64_t drops = 0;
  std::string error;
  ASSERT_TRUE(parse_trace_bin(bytes, parsed, drops, error)) << error;
  EXPECT_EQ(drops, 1u);  // the connection-start marker was evicted
  const std::vector<TraceEvent> want = ring.decode();
  ASSERT_EQ(parsed.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(to_jsonl(parsed, "s"), to_jsonl(want, "s"));
    EXPECT_EQ(parsed[i].seq, want[i].seq);
    EXPECT_EQ(parsed[i].time_ms, want[i].time_ms);  // exact bit round-trip
  }
}

TEST(TraceBinaryDump, StrictParserRejectsCorruptDumps) {
  RingRecorder ring;
  ring.begin_connection("c");
  ring.record({.kind = EventKind::kRoundMark});
  std::string good;
  ring.serialize(good);

  std::vector<TraceEvent> out;
  std::uint64_t drops = 0;
  std::string error;

  std::string bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_FALSE(parse_trace_bin(bad_magic, out, drops, error));

  std::string bad_version = good;
  bad_version[4] = 0x7f;
  EXPECT_FALSE(parse_trace_bin(bad_version, out, drops, error));

  // Truncation anywhere — header, note table, record block — must fail,
  // never yield a partial parse.
  for (const std::size_t len : {std::size_t{3}, std::size_t{20},
                                good.size() - 1}) {
    EXPECT_FALSE(
        parse_trace_bin(std::string_view(good).substr(0, len), out, drops,
                        error))
        << len;
  }

  std::string trailing = good + "x";
  EXPECT_FALSE(parse_trace_bin(trailing, out, drops, error));
  EXPECT_FALSE(error.empty());

  EXPECT_TRUE(parse_trace_bin(good, out, drops, error)) << error;
}

// ------------------------------------------------------- golden identity

TEST(TraceGoldenIdentity, RingDecodePathMatchesLegacyJsonlAcrossProfiles) {
  // The contract the whole binary path rests on: record the Section III
  // exchange as 32-byte WireRecords, decode offline, annotate, export —
  // and the JSONL is byte-identical to the legacy retain-TraceEvents
  // path. One shared ring reused via clear() across all six Table III
  // profiles also proves sequence restart on reuse.
  const server::ServerProfile profiles[] = {
      server::nginx_profile(),   server::litespeed_profile(),
      server::h2o_profile(),     server::nghttpd_profile(),
      server::tengine_profile(), server::apache_profile()};
  RingRecorder ring;  // unbounded retaining mode, reused across profiles
  for (const auto& profile : profiles) {
    Rng legacy_rng(7);
    VectorRecorder legacy;
    core::characterize_traced(core::Target::testbed(profile), legacy_rng,
                              legacy);
    const std::string want = to_jsonl(legacy.events(), profile.key);
    ASSERT_FALSE(want.empty()) << profile.key;

    ring.clear();
    Rng rng(7);
    core::Target target = core::Target::testbed(profile);
    target.recorder = &ring;
    core::characterize(target, rng);
    std::vector<TraceEvent> decoded = ring.decode();
    annotate_violations(decoded);
    EXPECT_EQ(to_jsonl(decoded, profile.key), want) << profile.key;

    // The binary dump round-trips to the same trace, so an h2trace-decode
    // of a serialized ring reproduces the exporter's JSONL byte for byte.
    std::string bytes;
    ring.serialize(bytes);
    std::vector<TraceEvent> parsed;
    std::uint64_t drops = 0;
    std::string error;
    ASSERT_TRUE(parse_trace_bin(bytes, parsed, drops, error)) << error;
    EXPECT_EQ(drops, 0u);
    annotate_violations(parsed);
    EXPECT_EQ(to_jsonl(parsed, profile.key), want) << profile.key;
  }
}

// ------------------------------------------------------------- histograms

TEST(Histogram, Log2BucketsAndMerge) {
  Histogram h;
  h.add(0);        // bucket 0
  h.add(1);        // bucket 1
  h.add(2);        // bucket 2
  h.add(3);        // bucket 2
  h.add(1024, 5);  // bucket 11, five times
  EXPECT_EQ(h.count(), 9u);
  EXPECT_EQ(h.sum(), 0u + 1 + 2 + 3 + 5 * 1024);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 2u);
  EXPECT_EQ(h.buckets()[11], 5u);

  Histogram other;
  other.add(3);
  other.merge(h);
  EXPECT_EQ(other.count(), 10u);
  EXPECT_EQ(other.buckets()[2], 3u);
}

TEST(MetricsRegistry, MergeIsFieldwiseSum) {
  MetricsRegistry a;
  a.connections = 2;
  a.frames_c2s[0] = 7;
  a.violation_tags["x"] = 1;
  a.frame_size.add(100);

  MetricsRegistry b;
  b.connections = 3;
  b.frames_c2s[0] = 1;
  b.violation_tags["x"] = 2;
  b.violation_tags["y"] = 5;

  a.merge(b);
  EXPECT_EQ(a.connections, 5u);
  EXPECT_EQ(a.frames_c2s[0], 8u);
  EXPECT_EQ(a.violation_tags.at("x"), 3u);
  EXPECT_EQ(a.violation_tags.at("y"), 5u);
  EXPECT_EQ(a.total_violations(), 8u);
  EXPECT_EQ(a.frame_size.count(), 1u);
}

// -------------------------------------------------- end-to-end determinism

TEST(TraceDeterminism, RepeatedCharacterizationsProduceIdenticalJsonl) {
  const auto run = [] {
    Rng rng(7);
    VectorRecorder recorder;
    core::characterize_traced(
        core::Target::testbed(server::litespeed_profile()), rng, recorder);
    return to_jsonl(recorder.events(), "litespeed");
  };
  const std::string a = run();
  const std::string b = run();
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(TraceDeterminism, CharacterizeTracedRecordsFullDuplexConversation) {
  Rng rng(7);
  VectorRecorder recorder;
  const auto c = core::characterize_traced(
      core::Target::testbed(server::nghttpd_profile()), rng, recorder);

  const auto& m = c.wire_metrics;
  EXPECT_GT(m.connections, 10u);  // one per probe connection
  EXPECT_GT(m.rounds, 0u);
  // Both directions must be present: client HEADERS, server DATA.
  constexpr std::size_t kHeadersSlot = 1, kDataSlot = 0, kSettingsSlot = 4;
  EXPECT_GT(m.frames_c2s[kHeadersSlot], 0u);
  EXPECT_GT(m.frames_s2c[kDataSlot], 0u);
  EXPECT_GT(m.frames_c2s[kSettingsSlot], 0u);
  EXPECT_GT(m.frames_s2c[kSettingsSlot], 0u);
  EXPECT_GT(m.bytes_s2c, m.bytes_c2s);  // responses dwarf requests
  EXPECT_GT(m.settings_applied, 0u);
  EXPECT_GT(m.hpack_inserts, 0u);  // nghttpd indexes aggressively
  EXPECT_EQ(m.parse_errors, 0u);
  // The registry's violation counts mirror the annotated tags.
  EXPECT_EQ(m.total_violations() > 0, !c.violation_tags.empty());
  // Equation-1 ratio histogram: nghttpd compresses, so ratios land well
  // below 100%.
  EXPECT_GT(m.compression_ratio_pct.count(), 0u);
  EXPECT_LT(m.compression_ratio_pct.mean(), 100.0);
}

TEST(TraceDeterminism, ScanWiretapIndependentOfThreadCount) {
  // 1/1000 of the epoch-2 list, as in scan_determinism_test: every probe
  // and family bucket, a few hundred ms. wiretap_traces keeps the JSONL of
  // every site, so the comparison covers traces and metrics both.
  const corpus::Population pop =
      corpus::generate_population(corpus::Epoch::kExp2, 7, /*scale=*/1000);
  ASSERT_FALSE(pop.sites.empty());

  corpus::ScanOptions single;
  single.threads = 1;
  single.wiretap_metrics = true;
  single.wiretap_traces = true;
  corpus::ScanOptions pooled = single;
  pooled.threads = 8;

  const auto a = corpus::scan_population(pop, single);
  const auto b = corpus::scan_population(pop, pooled);

  EXPECT_EQ(a.wire_metrics.to_json(), b.wire_metrics.to_json());
  ASSERT_EQ(a.wire_metrics_by_family.size(), b.wire_metrics_by_family.size());
  for (const auto& [family, metrics] : a.wire_metrics_by_family) {
    ASSERT_TRUE(b.wire_metrics_by_family.count(family)) << family;
    EXPECT_EQ(metrics.to_json(), b.wire_metrics_by_family.at(family).to_json())
        << family;
  }
  EXPECT_FALSE(a.site_traces.empty());
  EXPECT_EQ(a.site_traces, b.site_traces);  // byte-identical JSONL per site
  EXPECT_GT(a.wire_metrics.total_frames(), 0u);

  // The text rendering is derived from the same registry; spot-check it
  // round-trips the headline counters.
  const std::string text = a.wire_metrics.to_text();
  EXPECT_NE(text.find("connections"), std::string::npos);

  // Tracing must not perturb the scan's published aggregates.
  corpus::ScanOptions plain;
  plain.threads = 3;
  const auto c = corpus::scan_population(pop, plain);
  EXPECT_EQ(c.responding_sites, a.responding_sites);
  EXPECT_EQ(c.server_counts, a.server_counts);
  EXPECT_TRUE(c.site_traces.empty());  // wiretap off: nothing retained
  EXPECT_EQ(c.wire_metrics.total_frames(), 0u);
}

}  // namespace
}  // namespace h2r::trace
