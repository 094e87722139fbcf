// The scan driver keeps each worker's SiteScratch thread_local, and the
// caller is worker 0, so a thread that scans again starts from the scratch
// its previous call left behind: client, engine, transport buffers, wiretap
// ring and metrics fold. That reuse must be invisible. A report made on a
// warm thread has to equal the same call made on a fresh thread, whatever
// the options of the calls before it.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
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

}  // namespace
}  // namespace h2r::corpus
