// The scan driver keeps each worker's SiteScratch thread_local, and the
// caller is worker 0, so a thread that scans again starts from the scratch
// its previous call left behind: client, engine, transport buffers, wiretap
// ring and metrics fold. That reuse must be invisible. A report made on a
// warm thread has to equal the same call made on a fresh thread, whatever
// the options of the calls before it.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "corpus/population.h"
#include "corpus/scan.h"
#include "scan_fingerprint.h"

namespace h2r::corpus {
namespace {

/// Everything a call publishes that warm scratch could disturb: the
/// aggregate fingerprint plus the wiretap and detector snapshots.
std::string full_print(const ScanReport& r) {
  return fingerprint(r) + r.wire_metrics.to_json() +
         r.attack_detections.to_json();
}

Population batch_of(const Population& pop, std::size_t index,
                    std::size_t size) {
  Population b;
  b.epoch = pop.epoch;
  b.scale = pop.scale;
  const std::size_t begin = std::min(pop.sites.size(), index * size);
  const std::size_t end = std::min(pop.sites.size(), begin + size);
  b.sites.assign(pop.sites.begin() + static_cast<std::ptrdiff_t>(begin),
                 pop.sites.begin() + static_cast<std::ptrdiff_t>(end));
  b.total_scanned = b.sites.size();
  return b;
}

std::string scan_on_fresh_thread(const Population& pop,
                                 const ScanOptions& opts) {
  std::string out;
  std::thread([&] { out = full_print(scan_population(pop, opts)); }).join();
  return out;
}

TEST(ScanDriver, WarmScratchMatchesFreshThread) {
  const Population pop = generate_population(Epoch::kExp2, 7, /*scale=*/100);
  constexpr std::size_t kBatchSites = 8;

  ScanOptions clean;
  ScanOptions faulted;
  faulted.fault_injection = true;
  ScanOptions wiretap;
  wiretap.wiretap_metrics = true;
  ScanOptions uncoalesced;
  uncoalesced.coalesce = false;
  ScanOptions detect;
  detect.detect_attacks = true;
  const std::array<ScanOptions, 5> variants{clean, faulted, wiretap,
                                            uncoalesced, detect};
  const std::array<int, 3> thread_counts{1, 2, 8};

  // Two rounds over every (variant, thread count) pair, each call on its own
  // batch, all on this one thread, so each kind of call follows each other
  // kind at some point.
  const std::size_t calls = 2 * variants.size() * thread_counts.size();
  ASSERT_GE(pop.sites.size(), calls * kBatchSites);
  std::uint64_t faults = 0;
  std::uint64_t frames = 0;
  for (std::size_t i = 0; i < calls; ++i) {
    ScanOptions opts = variants[i % variants.size()];
    opts.threads = thread_counts[(i / variants.size()) % thread_counts.size()];
    const Population batch = batch_of(pop, i, kBatchSites);
    const ScanReport warm = scan_population(batch, opts);
    EXPECT_EQ(full_print(warm), scan_on_fresh_thread(batch, opts))
        << "call=" << i << " variant=" << i % variants.size()
        << " threads=" << opts.threads;
    EXPECT_EQ(warm.sites_ok + warm.sites_retried_ok + warm.sites_truncated +
                  warm.sites_disconnected + warm.sites_timed_out,
              batch.sites.size());
    faults += warm.fault_injected;
    frames += warm.wire_metrics.total_frames();
  }
  // The faulted and wiretap calls did what they are there for.
  EXPECT_GT(faults, 0u);
  EXPECT_GT(frames, 0u);
}

// The suite name follows the "reactor" block of the wire-metrics JSON, which
// holds the park accounting this test checks.
TEST(ScanReactor, StallStormCompletesWithoutSpinning) {
  // Worst case for the scan core: (nearly) every connection faulted, so
  // (nearly) every site parks, repeatedly. The driver must skip each parked
  // stretch in one step — visible as parked_rounds booked without being
  // pumped — never hit an exchange deadline, and still classify every site.
  const Population pop = generate_population(Epoch::kExp2, 7, /*scale=*/1000);

  ScanOptions storm;
  storm.fault_injection = true;
  storm.fault_floor = 0.97;
  storm.threads = 2;
  const ScanReport r = scan_population(pop, storm);

  const std::size_t classified = r.sites_ok + r.sites_retried_ok +
                                 r.sites_truncated + r.sites_disconnected +
                                 r.sites_timed_out;
  EXPECT_EQ(classified, pop.sites.size());
  EXPECT_GT(r.fault_injected, 0u);
  EXPECT_EQ(r.fault_deadline_hits, 0u);
  EXPECT_GT(r.wire_metrics.reactor_parks, 0u);
  // Parks cover multi-round stall stretches; if the loop were spinning one
  // round per wakeup these two would be equal.
  EXPECT_GT(r.wire_metrics.reactor_parked_rounds,
            r.wire_metrics.reactor_parks);
  EXPECT_EQ(r.wire_metrics.wakeups_per_site.count(), classified);

  // The park accounting is per site, so the storm's report and its JSON
  // snapshot are thread-count independent too.
  ScanOptions single = storm;
  single.threads = 1;
  const ScanReport s = scan_population(pop, single);
  EXPECT_EQ(fingerprint(s), fingerprint(r));
  EXPECT_EQ(s.wire_metrics.to_json(), r.wire_metrics.to_json());
}

/// The JSON object under "reactor" in a wire-metrics snapshot, braces
/// included; empty when the snapshot has no reactor block.
std::string reactor_block(const std::string& json) {
  const std::string key = "\"reactor\":";
  const std::size_t at = json.find(key);
  if (at == std::string::npos) return {};
  const std::size_t begin = at + key.size();
  int depth = 0;
  for (std::size_t i = begin; i < json.size(); ++i) {
    if (json[i] == '{') ++depth;
    if (json[i] == '}' && --depth == 0) {
      return json.substr(begin, i - begin + 1);
    }
  }
  return {};
}

/// The fingerprint line that starts with @p prefix, without its newline.
std::string fingerprint_line(const std::string& print,
                             const std::string& prefix) {
  const std::size_t at = print.find("\n" + prefix);
  if (at == std::string::npos) return {};
  const std::size_t end = print.find('\n', at + 1);
  return print.substr(at + 1, end - at - 1);
}

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

struct ParkGolden {
  const char* reactor;
  const char* outcomes;
  const char* faults;
  std::uint64_t digest;  ///< FNV-1a 64 of fingerprint + wire-metrics JSON
};

void expect_golden(const ScanReport& r, const ParkGolden& golden) {
  const std::string print = fingerprint(r);
  const std::string json = r.wire_metrics.to_json();
  EXPECT_EQ(reactor_block(json), golden.reactor);
  EXPECT_EQ(fingerprint_line(print, "outcomes="), golden.outcomes);
  EXPECT_EQ(fingerprint_line(print, "faults="), golden.faults);
  EXPECT_EQ(fnv1a64(print + json), golden.digest)
      << "0x" << std::hex << fnv1a64(print + json);
  // Retries happened, so their backoff parks are part of what is pinned.
  EXPECT_GT(r.fault_retries, 0u);
}

// Pins the faulted scan's park accounting and outcome classes to literal
// values, so a change in how parks are serviced or booked (exchange stalls
// as well as retry backoff) shows up as a diff, not only as a mismatch
// between two thread counts of the same build.
TEST(ScanReactor, FaultedParkAccountingIsGolden) {
  const Population pop = generate_population(Epoch::kExp2, 7, /*scale=*/1000);
  ScanOptions faulted;
  faulted.fault_injection = true;
  faulted.threads = 2;
  expect_golden(scan_population(pop, faulted),
                {.reactor = R"({"parks":103,"parked_rounds":3599,)"
                             R"("park_duration_rounds":{"count":103,)"
                             R"("sum":3599,"mean":34.942,)"
                             R"("log2_buckets":[0,6,16,11,0,0,70]},)"
                             R"("wakeups_per_site":{"count":82,"sum":103,)"
                             R"("mean":1.256,"log2_buckets":[31,22,24,4,1]}})",
                 .outcomes = "outcomes=38,32,5,7,0",
                 .faults = "faults=1786,119,70,0,0x1.b58p+11",
                 .digest = 0xa580ce4aea0b9fc5ull});
}

TEST(ScanReactor, StormParkAccountingIsGolden) {
  const Population pop = generate_population(Epoch::kExp2, 7, /*scale=*/1000);
  ScanOptions storm;
  storm.fault_injection = true;
  storm.fault_floor = 0.97;
  storm.wiretap_metrics = true;
  storm.threads = 2;
  expect_golden(scan_population(pop, storm),
                {.reactor = R"({"parks":378,"parked_rounds":12372,)"
                             R"("park_duration_rounds":{"count":378,)"
                             R"("sum":12372,"mean":32.730,)"
                             R"("log2_buckets":[0,25,47,68,0,0,238]},)"
                             R"("wakeups_per_site":{"count":82,"sum":378,)"
                             R"("mean":4.610,"log2_buckets":[15,3,5,48,11]}})",
                 .outcomes = "outcomes=16,4,28,34,0",
                 .faults = "faults=2177,596,238,0,0x1.73ep+13",
                 .digest = 0x60d1b289ee3f3b8bull});
}

}  // namespace
}  // namespace h2r::corpus
