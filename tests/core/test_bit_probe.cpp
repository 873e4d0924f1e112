// The designed-experiment engine's acceptance pins: it must classify every
// bit exactly like the fixed-vote loop it replaced — kept here as a
// test-local reference on the public pick_pair_with_delta +
// is_sbdr_strict_batch primitives — on every paper preset and under noisy
// seeds, while paying measurably less; probe_pairs must reuse the plan's
// evidence.
#include "core/bit_probe.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <set>

#include "core/coarse_detect.h"
#include "core/fine_detect.h"
#include "core_test_util.h"
#include "util/bitops.h"
#include "util/gf2.h"

namespace dramdig::core {
namespace {

using testing::pipeline_fixture;

/// Reference fixed-count vote loop: sequential experiments, each voting
/// `config.votes` independently random pairs in one strict batch; the
/// majority decides, nullopt when no pair could be picked.
std::vector<std::optional<bool>> reference_votes(
    measurement_plan& plan, const os::mapping_region& buffer,
    std::span<const std::uint64_t> deltas, const probe_config& config,
    rng& r) {
  std::vector<std::optional<bool>> out(deltas.size());
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    std::vector<sim::addr_pair> pairs;
    for (unsigned v = 0; v < config.votes; ++v) {
      const auto pair =
          pick_pair_with_delta(buffer, deltas[i], r, config.pair_attempts);
      if (pair) pairs.push_back(*pair);
    }
    if (pairs.empty()) continue;
    const std::vector<char> verdicts = plan.is_sbdr_strict_batch(pairs);
    const auto high = std::count(verdicts.begin(), verdicts.end(), 1);
    out[i] = static_cast<std::size_t>(high) * 2 > pairs.size();
  }
  return out;
}

/// Step 1 on the reference votes (coarse_config's 7): row pass over
/// single-bit deltas, then the column pass pairing the lowest row bit with
/// each non-row bit.
coarse_result reference_coarse(measurement_plan& plan,
                               const os::mapping_region& buffer,
                               const domain_knowledge& knowledge, rng& r) {
  const probe_config config = coarse_config{}.probe;
  coarse_result result;
  std::vector<unsigned> probed;
  std::vector<std::uint64_t> deltas;
  for (unsigned b = knowledge.min_probe_bit; b < knowledge.address_bits; ++b) {
    probed.push_back(b);
    deltas.push_back(std::uint64_t{1} << b);
  }
  const auto rows = reference_votes(plan, buffer, deltas, config, r);
  std::vector<unsigned> non_row;
  for (std::size_t i = 0; i < probed.size(); ++i) {
    if (!rows[i]) {
      result.untestable_bits.push_back(probed[i]);
    } else if (*rows[i]) {
      result.row_bits.push_back(probed[i]);
    } else {
      non_row.push_back(probed[i]);
    }
  }
  if (result.row_bits.empty()) {
    result.bank_bits = non_row;
    return result;
  }
  deltas.clear();
  for (unsigned b : non_row) {
    deltas.push_back((std::uint64_t{1} << result.row_bits.front()) |
                     (std::uint64_t{1} << b));
  }
  const auto cols = reference_votes(plan, buffer, deltas, config, r);
  for (std::size_t i = 0; i < non_row.size(); ++i) {
    (cols[i] && *cols[i] ? result.column_bits : result.bank_bits)
        .push_back(non_row[i]);
  }
  for (unsigned b = 0; b < knowledge.min_probe_bit; ++b) {
    result.column_bits.push_back(b);
  }
  std::sort(result.column_bits.begin(), result.column_bits.end());
  return result;
}

/// Step 3's timed part on the reference votes (fine_config's 3 per
/// candidate): each function's highest
/// bit, widest-top-bit first, confirmed through a bank-invariant delta
/// until the spec row count is met, then the knowledge fallback. (The
/// shared column bits that follow are a pure function of these rows.)
fine_outcome reference_fine(measurement_plan& plan,
                            const os::mapping_region& buffer,
                            const domain_knowledge& knowledge,
                            const coarse_result& coarse,
                            const std::vector<std::uint64_t>& funcs, rng& r) {
  const probe_config config = fine_config{}.probe;
  fine_outcome out;
  std::set<unsigned> rows(coarse.row_bits.begin(), coarse.row_bits.end());
  const std::set<unsigned> cols(coarse.column_bits.begin(),
                                coarse.column_bits.end());
  const std::uint64_t support = mask_of_bits(coarse.bank_bits);
  std::vector<std::uint64_t> by_width = funcs;
  std::sort(by_width.begin(), by_width.end(),
            [](std::uint64_t a, std::uint64_t b) {
              const auto ha = bits_of_mask(a).back();
              const auto hb = bits_of_mask(b).back();
              if (ha != hb) return ha > hb;
              const int pa = std::popcount(a), pb = std::popcount(b);
              return pa != pb ? pa < pb : a < b;
            });
  std::size_t needed = knowledge.expected_row_bits > rows.size()
                           ? knowledge.expected_row_bits - rows.size()
                           : 0;
  for (const std::uint64_t f : by_width) {
    if (needed == 0) break;
    if (std::popcount(f) < 2) continue;
    const unsigned candidate = bits_of_mask(f).back();
    if (rows.contains(candidate) || cols.contains(candidate)) continue;
    gf2::matrix system = funcs;
    system.push_back(std::uint64_t{1} << candidate);
    const auto delta =
        gf2::solve(system, std::uint64_t{1} << funcs.size(),
                   support | (std::uint64_t{1} << candidate));
    bool accept = true;
    if (delta) {
      const std::uint64_t one[1] = {*delta};
      const auto verdict =
          reference_votes(plan, buffer, one, config, r).front();
      if (verdict) {
        accept = *verdict;
      } else {
        out.timing_verified = false;
      }
    } else {
      out.timing_verified = false;
    }
    if (!accept) {
      out.rejected_candidates.push_back(candidate);
      continue;
    }
    rows.insert(candidate);
    out.shared_row_bits.push_back(candidate);
    --needed;
  }
  if (needed > 0) {
    out.timing_verified = false;
    for (auto it = coarse.bank_bits.rbegin();
         it != coarse.bank_bits.rend() && needed > 0; ++it) {
      if (rows.contains(*it) || cols.contains(*it)) continue;
      rows.insert(*it);
      out.shared_row_bits.push_back(*it);
      --needed;
    }
  }
  out.row_bits.assign(rows.begin(), rows.end());
  std::sort(out.shared_row_bits.begin(), out.shared_row_bits.end());
  return out;
}

struct probed_run {
  coarse_result coarse;
  fine_outcome fine;
  std::uint64_t measurements = 0;
  probe_stats stats;
};

/// Coarse + fine (with the machine's true functions, isolating the probed
/// phases from partition) on a fresh fixture, through the designed engine
/// or the reference vote loop.
probed_run run_probed_phases(int machine, std::uint64_t seed, bool designed) {
  pipeline_fixture f(machine, seed);
  measurement_plan plan(f.channel);
  const auto& funcs = f.env.spec().mapping.bank_functions();
  probed_run out;
  const std::uint64_t m0 = f.env.mach().controller().measurement_count();
  if (designed) {
    bit_probe_engine engine(plan, f.buffer);
    out.coarse = run_coarse_detection(engine, f.knowledge, f.r);
    out.fine = run_fine_detection(engine, f.knowledge, out.coarse, funcs, f.r);
    out.stats = engine.stats();
  } else {
    out.coarse = reference_coarse(plan, f.buffer, f.knowledge, f.r);
    out.fine =
        reference_fine(plan, f.buffer, f.knowledge, out.coarse, funcs, f.r);
  }
  out.measurements = f.env.mach().controller().measurement_count() - m0;
  return out;
}

void expect_identical_classifications(const probed_run& reference,
                                      const probed_run& designed,
                                      const std::string& label) {
  EXPECT_EQ(reference.coarse.row_bits, designed.coarse.row_bits) << label;
  EXPECT_EQ(reference.coarse.column_bits, designed.coarse.column_bits)
      << label;
  EXPECT_EQ(reference.coarse.bank_bits, designed.coarse.bank_bits) << label;
  EXPECT_EQ(reference.coarse.untestable_bits, designed.coarse.untestable_bits)
      << label;
  EXPECT_EQ(reference.fine.row_bits, designed.fine.row_bits) << label;
  EXPECT_EQ(reference.fine.shared_row_bits, designed.fine.shared_row_bits)
      << label;
  EXPECT_EQ(reference.fine.rejected_candidates,
            designed.fine.rejected_candidates)
      << label;
  EXPECT_EQ(reference.fine.timing_verified, designed.fine.timing_verified)
      << label;
}

TEST(BitProbeDifferential, IdenticalClassificationsOnEveryPreset) {
  for (int machine = 1; machine <= 9; ++machine) {
    const probed_run reference = run_probed_phases(machine, 7, false);
    const probed_run designed = run_probed_phases(machine, 7, true);
    expect_identical_classifications(reference, designed,
                                     "No." + std::to_string(machine));
  }
}

TEST(BitProbeDifferential, IdenticalClassificationsOnNoisySeeds) {
  // The noisy mobile units, across randomized seeds: single-sample
  // negatives plus strict-verified positives must land on the reference's
  // all-strict verdicts every time.
  for (int machine : {3, 7}) {
    for (std::uint64_t seed : {11u, 23u, 55u, 101u}) {
      const probed_run reference = run_probed_phases(machine, seed, false);
      const probed_run designed = run_probed_phases(machine, seed, true);
      expect_identical_classifications(
          reference, designed,
          "No." + std::to_string(machine) + " seed " + std::to_string(seed));
    }
  }
}

TEST(BitProbe, DesignedCutsCoarseFineMeasurementsOnSmallMachines) {
  // The small machines were dominated by coarse voting: the engine must
  // pay at most 70% of the reference vote loop's measurements.
  for (int machine : {1, 4, 7}) {
    const probed_run reference = run_probed_phases(machine, 7, false);
    const probed_run designed = run_probed_phases(machine, 7, true);
    EXPECT_LE(designed.measurements * 10, reference.measurements * 7)
        << "No." << machine << ": designed " << designed.measurements
        << " vs reference " << reference.measurements;
  }
}

TEST(BitProbe, EarlyTerminationAndRoundBatchingShowInStats) {
  const probed_run designed = run_probed_phases(1, 7, true);
  // Unanimous experiments stop after ceil(votes/2) votes, so the engine
  // must save a large share of the fixed 7-votes-per-bit budget...
  EXPECT_GT(designed.stats.votes_saved, designed.stats.experiments);
  EXPECT_LT(designed.stats.votes_cast, designed.stats.experiments * 7);
  // ...and the whole coarse phase collapses into a handful of cross-bit
  // rounds (per-bit voting runs ~27 batches for the row pass alone).
  EXPECT_LE(designed.stats.rounds,
            7u * 2u + designed.fine.shared_row_bits.size() * 3u +
                designed.fine.rejected_candidates.size() * 3u);
  // Shared bases serve a meaningful share of the votes.
  EXPECT_GT(designed.stats.shared_base_votes, designed.stats.votes_cast / 4);
}

TEST(BitProbe, UntestableDeltaReturnsNulloptInBothModes) {
  // A delta far above installed memory: no partner page can ever back it,
  // for the engine and the reference loop alike.
  pipeline_fixture f(4, 7);
  measurement_plan plan(f.channel);
  bit_probe_engine engine(plan, f.buffer);
  const std::uint64_t delta = std::uint64_t{1} << 40;
  EXPECT_EQ(engine.run_one(delta, probe_config{}, f.r), std::nullopt);
  const std::uint64_t one[1] = {delta};
  EXPECT_EQ(reference_votes(plan, f.buffer, one, probe_config{}, f.r).front(),
            std::nullopt);
}

TEST(BitProbe, ProbePairsAnswersRepeatsFromThePlanCache) {
  pipeline_fixture f(1, 7);
  measurement_plan plan(f.channel);
  std::vector<sim::addr_pair> pairs;
  for (unsigned b = 20; b < 26; ++b) {
    const auto pair =
        pick_pair_with_delta(f.buffer, std::uint64_t{1} << b, f.r, 256);
    ASSERT_TRUE(pair.has_value());
    pairs.push_back(*pair);
  }
  const auto first = plan.probe_pairs(pairs);
  EXPECT_EQ(first.reused, 0u);
  const std::uint64_t measured =
      f.env.mach().controller().measurement_count();
  const auto second = plan.probe_pairs(pairs);
  EXPECT_EQ(second.sbdr, first.sbdr);
  EXPECT_EQ(second.reused, pairs.size());
  EXPECT_EQ(f.env.mach().controller().measurement_count(), measured)
      << "repeat probes must not touch the controller";
}

TEST(BitProbe, ProbePairsMatchesStrictVerdicts) {
  // The designed vote's adaptive economics (single-sample negatives,
  // strict-verified positives) must land on the same verdicts as the
  // all-strict predicate, pair for pair.
  pipeline_fixture f(7, 31);
  measurement_plan probe_plan(f.channel);
  std::vector<sim::addr_pair> pairs;
  for (unsigned b = f.knowledge.min_probe_bit; b < f.knowledge.address_bits;
       ++b) {
    const auto pair =
        pick_pair_with_delta(f.buffer, std::uint64_t{1} << b, f.r, 256);
    if (pair) pairs.push_back(*pair);
  }
  ASSERT_GT(pairs.size(), 10u);
  const auto probed = probe_plan.probe_pairs(pairs);

  pipeline_fixture g(7, 31);
  measurement_plan strict_plan(g.channel);
  // Same physical pairs measured strictly on an identical twin machine.
  const std::vector<char> strict = strict_plan.is_sbdr_strict_batch(pairs);
  EXPECT_EQ(probed.sbdr, strict);
}

}  // namespace
}  // namespace dramdig::core
