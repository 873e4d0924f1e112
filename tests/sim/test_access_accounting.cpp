// The controller's O(1) closed-form access accounting against a test-local
// reference that replays every access of the alternating 2*rounds loop
// through a per-bank row-buffer table. Per measurement, the access tally
// must agree exactly: the noiseless mean latency it implies, the integer
// per-access clock charges, and the access counters — on every timing
// preset, on fractional timings and under heavy bursts.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "dram/presets.h"
#include "sim/memory_controller.h"
#include "sim/profiles.h"
#include "sim/virtual_clock.h"
#include "util/bitops.h"
#include "util/rng.h"

namespace dramdig::sim {
namespace {

/// The per-access row-buffer replay: the open row of every bank, updated
/// one access at a time in the loop's alternating order.
class access_loop_reference {
 public:
  struct tally {
    std::uint64_t hits = 0, closed = 0, conflicts = 0;
  };

  access_loop_reference(const dram::address_mapping& truth,
                        const timing_model& timing)
      : truth_(truth), timing_(timing),
        row_mask_(mask_of_bits(truth.row_bits())),
        open_(truth.bank_count(), kClosed) {}

  /// One measurement: rounds accesses to each address, alternating.
  tally measure(std::uint64_t p1, std::uint64_t p2, unsigned rounds) {
    tally t;
    for (std::uint64_t i = 0; i < 2ull * rounds; ++i) {
      switch (touch(i % 2 == 0 ? p1 : p2)) {
        case kHit: ++t.hits; break;
        case kClosedBank: ++t.closed; break;
        default: ++t.conflicts; break;
      }
    }
    return t;
  }

  /// One raw access; returns its noiseless base latency.
  double access(std::uint64_t phys) {
    switch (touch(phys)) {
      case kHit: return timing_.row_hit_ns;
      case kClosedBank: return timing_.row_closed_ns;
      default: return timing_.row_conflict_ns;
    }
  }

  /// Noiseless mean per-access latency of a tallied measurement.
  double mean_ns(const tally& t, unsigned rounds) const {
    return (static_cast<double>(t.hits) * timing_.row_hit_ns +
            static_cast<double>(t.closed) * timing_.row_closed_ns +
            static_cast<double>(t.conflicts) * timing_.row_conflict_ns) /
           (2.0 * static_cast<double>(rounds));
  }

  /// Virtual time of one access at `base` latency, truncated per access.
  std::uint64_t charge_ns(double base) const {
    return static_cast<std::uint64_t>(base + timing_.clflush_ns +
                                      timing_.loop_overhead_ns);
  }

  std::uint64_t charge_ns(const tally& t) const {
    return t.hits * charge_ns(timing_.row_hit_ns) +
           t.closed * charge_ns(timing_.row_closed_ns) +
           t.conflicts * charge_ns(timing_.row_conflict_ns);
  }

 private:
  static constexpr std::uint64_t kClosed = ~std::uint64_t{0};
  enum outcome { kHit, kClosedBank, kConflict };

  outcome touch(std::uint64_t phys) {
    std::uint64_t& open = open_[truth_.bank_of(phys)];
    const std::uint64_t row = phys & row_mask_;
    const outcome o = open == kClosed ? kClosedBank
                      : open == row   ? kHit
                                      : kConflict;
    open = row;
    return o;
  }

  const dram::address_mapping& truth_;
  timing_model timing_;
  std::uint64_t row_mask_;
  std::vector<std::uint64_t> open_;  ///< row-masked address, or kClosed
};

/// Drive the controller and the reference through one mixed schedule —
/// scalar pairs, raw accesses, then a batch — and hold every measurement
/// to the reference tally. With `noiseless` the per-access jitter is zeroed
/// so each clean latency must equal the reference mean exactly (a
/// contaminated one can only sit above it); with jitter on, the clock
/// charges and counters must still match exactly.
void expect_matches_reference(const dram::machine_spec& spec,
                              timing_model timing, std::uint64_t seed,
                              bool noiseless) {
  if (noiseless) timing.access_noise_sigma_ns = 0.0;
  virtual_clock clock;
  memory_controller mc(spec.mapping, timing, clock, rng(seed));
  access_loop_reference ref(spec.mapping, timing);

  rng addr(seed ^ 0xadd2);
  std::vector<addr_pair> pairs;
  for (int i = 0; i < 400; ++i) {
    pairs.emplace_back(addr.below(spec.memory_bytes) & ~63ull,
                       addr.below(spec.memory_bytes) & ~63ull);
  }
  const auto expect_latency = [&](const pair_measurement& m, double want,
                                  std::size_t i) {
    if (!noiseless) return;
    if (m.contaminated) {
      EXPECT_GE(m.mean_access_ns, want) << "pair " << i;
      EXPECT_LT(m.mean_access_ns, want + timing.contamination_max_ns)
          << "pair " << i;
    } else {
      EXPECT_EQ(m.mean_access_ns, std::max(1.0, want)) << "pair " << i;
    }
  };

  // The raw accesses perturb the row-buffer state so the first accesses
  // of the following measurements exercise all three transient classes.
  for (std::size_t i = 0; i < 50; ++i) {
    const std::uint64_t t0 = clock.now_ns();
    const std::uint64_t a0 = mc.access_count();
    const auto m = mc.measure_pair(pairs[i].first, pairs[i].second, 37);
    const auto t = ref.measure(pairs[i].first, pairs[i].second, 37);
    ASSERT_EQ(clock.now_ns() - t0, ref.charge_ns(t)) << "pair " << i;
    ASSERT_EQ(mc.access_count() - a0, 74u);
    expect_latency(m, ref.mean_ns(t, 37), i);

    const std::uint64_t t1 = clock.now_ns();
    const double latency = mc.access(pairs[i].second);
    const double base = ref.access(pairs[i].second);
    if (noiseless) {
      ASSERT_EQ(latency, base) << "access " << i;
      ASSERT_EQ(clock.now_ns() - t1, ref.charge_ns(base)) << "access " << i;
    }
  }

  const std::uint64_t t0 = clock.now_ns();
  const std::uint64_t a0 = mc.access_count();
  const std::uint64_t m0 = mc.measurement_count();
  const auto batch = mc.measure_pairs(pairs, 123);
  std::uint64_t charged = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto t = ref.measure(pairs[i].first, pairs[i].second, 123);
    charged += ref.charge_ns(t);
    expect_latency(batch[i], ref.mean_ns(t, 123), i);
  }
  EXPECT_EQ(clock.now_ns() - t0, charged);
  EXPECT_EQ(mc.access_count() - a0, pairs.size() * 246);
  EXPECT_EQ(mc.measurement_count() - m0, pairs.size());

  // Both row-buffer tables end in the same state: one more measurement
  // still agrees.
  const std::uint64_t t1 = clock.now_ns();
  const auto tail = mc.measure_pair(pairs[0].first, pairs[0].second, 11);
  const auto tail_ref = ref.measure(pairs[0].first, pairs[0].second, 11);
  EXPECT_EQ(clock.now_ns() - t1, ref.charge_ns(tail_ref));
  expect_latency(tail, ref.mean_ns(tail_ref, 11), 0);
}

TEST(AccessAccounting, ClosedFormMatchesLoopOnEveryPaperMachine) {
  for (const dram::machine_spec& spec : dram::paper_machines()) {
    SCOPED_TRACE(spec.label());
    expect_matches_reference(spec, timing_profile_for(spec),
                             1000 + spec.number, /*noiseless=*/true);
    expect_matches_reference(spec, timing_profile_for(spec),
                             1000 + spec.number, /*noiseless=*/false);
  }
}

TEST(AccessAccounting, ClosedFormMatchesLoopOnFractionalTimings) {
  // Non-integral charge values stress the integer per-access truncation:
  // the closed form multiplies counts by truncated charges, the reference
  // adds them one access at a time — totals must still match exactly.
  timing_model odd{};
  odd.row_hit_ns = 164.37;
  odd.row_closed_ns = 249.91;
  odd.row_conflict_ns = 331.13;
  odd.clflush_ns = 54.49;
  odd.loop_overhead_ns = 15.77;
  odd.access_noise_sigma_ns = 8.31;
  odd.contamination_chance = 0.12;
  expect_matches_reference(dram::machine_by_number(1), odd, 77, true);
  expect_matches_reference(dram::machine_by_number(1), odd, 77, false);
}

TEST(AccessAccounting, ClosedFormMatchesLoopUnderHeavyBursts) {
  // Bursty contamination reads the burst schedule off the virtual clock;
  // any clock drift would desynchronize the contamination rate. The
  // clean/contaminated latency split is checked against the reference.
  timing_model bursty{};
  bursty.burst_mean_interval_s = 0.001;
  bursty.burst_mean_duration_s = 2.0;
  bursty.burst_contamination_factor = 40.0;
  expect_matches_reference(dram::machine_by_number(3), bursty, 5, true);
  expect_matches_reference(dram::machine_by_number(3), bursty, 5, false);

  // The bursts really engaged: contamination far above the base rate.
  virtual_clock clock;
  memory_controller mc(dram::machine_by_number(3).mapping, bursty, clock,
                       rng(5));
  std::vector<addr_pair> pairs(2000, addr_pair{0, 1ull << 20});
  std::size_t contaminated = 0;
  for (const pair_measurement& m : mc.measure_pairs(pairs, 123)) {
    contaminated += m.contaminated;
  }
  EXPECT_GT(contaminated, pairs.size() / 10);
}

TEST(AccessAccounting, TransientFirstAccessesAreCharged) {
  // A measurement's first access to a precharged bank pays row_closed, not
  // the steady-state latency: with zero noise the observed mean must sit
  // exactly at the tally's closed-form value.
  timing_model quiet{};
  quiet.access_noise_sigma_ns = 0.0;
  quiet.contamination_chance = 0.0;
  const auto& spec = dram::machine_by_number(1);
  virtual_clock clock;
  memory_controller mc(spec.mapping, quiet, clock, rng(1));
  // Fresh controller: both banks precharged. Same-bank-different-row pair
  // (bit 20 is row-only on No.1): first access closed, second conflict,
  // rest conflicts.
  const unsigned rounds = 10;
  const auto m = mc.measure_pair(0, 1ull << 20, rounds);
  const double want =
      (quiet.row_closed_ns + (2.0 * rounds - 1.0) * quiet.row_conflict_ns) /
      (2.0 * rounds);
  EXPECT_DOUBLE_EQ(m.mean_access_ns, want);
  // Cross-bank pair (bit 6 switches channels on No.1): the fresh bank pays
  // one activate, the bank left open by the previous measurement hits
  // immediately, and the steady state is all hits.
  const auto cross = mc.measure_pair(1ull << 6, 1ull << 20, rounds);
  const double want_cross =
      (quiet.row_closed_ns + (2.0 * rounds - 1.0) * quiet.row_hit_ns) /
      (2.0 * rounds);
  EXPECT_DOUBLE_EQ(cross.mean_access_ns, want_cross);
}

TEST(AccessAccounting, LoopModeCountsMatchClosedForm) {
  // Counters: 2*rounds accesses per measurement, exactly what the replayed
  // loop walks.
  const auto& spec = dram::machine_by_number(1);
  virtual_clock clock;
  memory_controller mc(spec.mapping, timing_model{}, clock, rng(3));
  access_loop_reference ref(spec.mapping, timing_model{});
  (void)mc.measure_pair(0, 64, 250);
  const auto t = ref.measure(0, 64, 250);
  EXPECT_EQ(mc.measurement_count(), 1u);
  EXPECT_EQ(mc.access_count(), t.hits + t.closed + t.conflicts);
  EXPECT_EQ(mc.access_count(), 500u);
  EXPECT_EQ(clock.now_ns(), ref.charge_ns(t));
}

}  // namespace
}  // namespace dramdig::sim
