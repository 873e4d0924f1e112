#include "core/function_detect.h"

#include <gtest/gtest.h>

#include <map>

#include "dram/presets.h"
#include "sim/virtual_clock.h"
#include "util/bitops.h"
#include "util/combinatorics.h"
#include "util/gf2.h"
#include "util/rng.h"

namespace dramdig::core {
namespace {

/// Synthesize noise-free piles straight from a ground-truth mapping: every
/// combination of the bank bits, grouped by true flat bank. This isolates
/// Algorithm 3 from the timing layer.
std::vector<std::vector<std::uint64_t>> piles_for(
    const dram::address_mapping& truth,
    const std::vector<unsigned>& bank_bits) {
  std::map<std::uint64_t, std::vector<std::uint64_t>> by_bank;
  const std::uint64_t combos = std::uint64_t{1} << bank_bits.size();
  for (std::uint64_t c = 0; c < combos; ++c) {
    const std::uint64_t pa = scatter_bits(c, bank_bits);
    by_bank[truth.bank_of(pa)].push_back(pa);
  }
  std::vector<std::vector<std::uint64_t>> piles;
  for (auto& [bank, pile] : by_bank) piles.push_back(std::move(pile));
  return piles;
}

/// Brute-force reference for the candidate search (the paper's
/// gen_xor_masks(B)): every combination of bank bits, 1 bit .. all bits,
/// kept when it evaluates to a constant parity on every pile. `checks`
/// counts parity evaluations, the unit detect_functions charges.
struct enumeration_reference {
  std::vector<std::uint64_t> candidates;
  std::uint64_t checks = 0;
};

enumeration_reference enumerate_candidates(
    const std::vector<std::vector<std::uint64_t>>& piles,
    const std::vector<unsigned>& bank_bits) {
  enumeration_reference ref;
  for_each_bit_combination(
      bank_bits, 1, static_cast<unsigned>(bank_bits.size()),
      [&](std::uint64_t mask) {
        for (const auto& pile : piles) {
          const unsigned want = parity(pile.front(), mask);
          for (std::size_t i = 1; i < pile.size(); ++i) {
            ++ref.checks;
            if (parity(pile[i], mask) != want) return true;  // next mask
          }
        }
        ref.candidates.push_back(mask);
        return true;
      });
  return ref;
}

/// detect_functions must agree with the enumeration reference: the same
/// candidate count, and — everything downstream being a function of the
/// candidate set — the reference's minimal basis when it has exactly
/// log2(#banks) vectors, a subset of it when it has more, and failure when
/// it has fewer.
void expect_matches_enumeration(const function_outcome& out,
                                const enumeration_reference& ref,
                                unsigned bank_count, const std::string& label) {
  EXPECT_EQ(out.raw_candidates, ref.candidates.size()) << label;
  const gf2::matrix basis = gf2::minimal_basis(ref.candidates);
  const unsigned want = log2_exact(bank_count);
  if (basis.size() < want) {
    EXPECT_FALSE(out.success) << label;
  } else if (basis.size() == want) {
    EXPECT_TRUE(out.success) << label;
    EXPECT_EQ(out.functions, basis) << label;
  } else {
    for (const std::uint64_t f : out.functions) {
      EXPECT_NE(std::find(basis.begin(), basis.end(), f), basis.end())
          << label;
    }
  }
}

TEST(FunctionDetect, RecoversMachineNo1Functions) {
  sim::virtual_clock clock;
  const auto& m = dram::machine_by_number(1);
  const std::vector<unsigned> bank_bits{6, 14, 15, 16, 17, 18, 19};
  const auto out =
      detect_functions(piles_for(m.mapping, bank_bits), bank_bits, 16, clock);
  ASSERT_TRUE(out.success);
  EXPECT_TRUE(out.numbering_ok);
  EXPECT_EQ(out.functions.size(), 4u);
  EXPECT_TRUE(gf2::same_span(out.functions, m.mapping.bank_functions()));
}

TEST(FunctionDetect, RecoversWideChannelFunction) {
  sim::virtual_clock clock;
  const auto& m = dram::machine_by_number(2);
  const std::vector<unsigned> bank_bits{7,  8,  9,  12, 13, 14, 15,
                                        16, 17, 18, 19, 20, 21};
  const auto out =
      detect_functions(piles_for(m.mapping, bank_bits), bank_bits, 32, clock);
  ASSERT_TRUE(out.success);
  EXPECT_EQ(out.functions.size(), 5u);
  EXPECT_TRUE(gf2::same_span(out.functions, m.mapping.bank_functions()));
}

TEST(FunctionDetect, AllPaperMachinesRecoverable) {
  for (const auto& m : dram::paper_machines()) {
    sim::virtual_clock clock;
    std::vector<unsigned> bank_bits;
    for (std::uint64_t f : m.mapping.bank_functions()) {
      for (unsigned b : bits_of_mask(f)) bank_bits.push_back(b);
    }
    std::sort(bank_bits.begin(), bank_bits.end());
    bank_bits.erase(std::unique(bank_bits.begin(), bank_bits.end()),
                    bank_bits.end());
    const auto out = detect_functions(piles_for(m.mapping, bank_bits),
                                      bank_bits, m.total_banks(), clock);
    ASSERT_TRUE(out.success) << m.label() << ": " << out.failure_reason;
    EXPECT_TRUE(gf2::same_span(out.functions, m.mapping.bank_functions()))
        << m.label();
  }
}

TEST(FunctionDetect, PrefersMinimalFunctions) {
  // Even though (14,15,18,19) is constant per bank, the reported basis
  // keeps the two-bit functions (the paper's priority rule).
  sim::virtual_clock clock;
  const auto& m = dram::machine_by_number(1);
  const std::vector<unsigned> bank_bits{6, 14, 15, 16, 17, 18, 19};
  const auto out =
      detect_functions(piles_for(m.mapping, bank_bits), bank_bits, 16, clock);
  ASSERT_TRUE(out.success);
  for (std::uint64_t f : out.functions) {
    EXPECT_LE(std::popcount(f), 2);
  }
}

TEST(FunctionDetect, FailsWhenPilesLackInformation) {
  // A single pile cannot pin down any function set of full rank.
  sim::virtual_clock clock;
  const auto& m = dram::machine_by_number(1);
  const std::vector<unsigned> bank_bits{6, 14, 15, 16, 17, 18, 19};
  auto piles = piles_for(m.mapping, bank_bits);
  piles.resize(1);
  const auto out = detect_functions(piles, bank_bits, 16, clock);
  // With one pile every mask constant on it survives, giving far too many
  // independent candidates and no consistent numbering.
  EXPECT_FALSE(out.success && out.numbering_ok);
}

TEST(FunctionDetect, PollutedPileKillsDetection) {
  // One wrong-bank member erases the true functions from the
  // intersection — the reason partition re-verifies its positives.
  sim::virtual_clock clock;
  const auto& m = dram::machine_by_number(4);
  const std::vector<unsigned> bank_bits{13, 14, 15, 16, 17, 18};
  auto piles = piles_for(m.mapping, bank_bits);
  piles[0].push_back(piles[1].front());
  const auto out = detect_functions(piles, bank_bits, 8, clock);
  EXPECT_FALSE(out.success);
  EXPECT_FALSE(out.failure_reason.empty());
}

TEST(FunctionDetect, NumberingCountsAllBanks) {
  sim::virtual_clock clock;
  const auto& m = dram::machine_by_number(4);
  const std::vector<unsigned> bank_bits{13, 14, 15, 16, 17, 18};
  const auto out =
      detect_functions(piles_for(m.mapping, bank_bits), bank_bits, 8, clock);
  ASSERT_TRUE(out.success);
  EXPECT_TRUE(out.numbering_ok);
}

TEST(FunctionDetect, ChargesCpuTimeToClock) {
  sim::virtual_clock clock;
  const auto& m = dram::machine_by_number(1);
  const std::vector<unsigned> bank_bits{6, 14, 15, 16, 17, 18, 19};
  (void)detect_functions(piles_for(m.mapping, bank_bits), bank_bits, 16,
                         clock);
  EXPECT_GT(clock.now_ns(), 0u);
}

TEST(FunctionDetect, NullspaceMatchesEnumerationOnAllPresets) {
  // On every paper machine (DDR3 and DDR4) the null-space search must
  // recover what the 2^B mask enumeration finds — while charging far less
  // virtual CPU than the enumeration's parity checks would.
  function_config cfg{};
  for (const auto& m : dram::paper_machines()) {
    std::vector<unsigned> bank_bits;
    for (std::uint64_t f : m.mapping.bank_functions()) {
      for (unsigned b : bits_of_mask(f)) bank_bits.push_back(b);
    }
    std::sort(bank_bits.begin(), bank_bits.end());
    bank_bits.erase(std::unique(bank_bits.begin(), bank_bits.end()),
                    bank_bits.end());
    const auto piles = piles_for(m.mapping, bank_bits);
    sim::virtual_clock clock;
    const auto out =
        detect_functions(piles, bank_bits, m.total_banks(), clock, cfg);
    ASSERT_TRUE(out.success) << m.label() << ": " << out.failure_reason;
    EXPECT_TRUE(out.numbering_ok) << m.label();
    const enumeration_reference ref = enumerate_candidates(piles, bank_bits);
    expect_matches_enumeration(out, ref, m.total_banks(), m.label());
    EXPECT_LT(clock.now_ns(), static_cast<std::uint64_t>(
                                  static_cast<double>(ref.checks) *
                                  cfg.cpu_ns_per_check))
        << m.label();
  }
}

TEST(FunctionDetect, NullspaceMatchesEnumerationOnRandomPiles) {
  // Property test over random mappings with up to 12 bank bits — including
  // degenerate inputs where detection fails.
  for (std::uint64_t seed = 100; seed < 130; ++seed) {
    const auto m = dram::random_machine(30, 3 + seed % 3, seed);
    std::vector<unsigned> bank_bits;
    for (std::uint64_t f : m.mapping.bank_functions()) {
      for (unsigned b : bits_of_mask(f)) bank_bits.push_back(b);
    }
    std::sort(bank_bits.begin(), bank_bits.end());
    bank_bits.erase(std::unique(bank_bits.begin(), bank_bits.end()),
                    bank_bits.end());
    if (bank_bits.size() > 12) continue;
    auto piles = piles_for(m.mapping, bank_bits);
    // Every other seed, degrade the piles so the failure paths get
    // reference coverage too.
    if (seed % 2 == 0 && piles.size() > 2) piles.resize(piles.size() / 2);
    sim::virtual_clock clock;
    const auto out = detect_functions(piles, bank_bits, m.total_banks(), clock);
    expect_matches_enumeration(out, enumerate_candidates(piles, bank_bits),
                               m.total_banks(),
                               "seed " + std::to_string(seed));
  }
}

TEST(FunctionDetect, RandomMappingsProperty) {
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    const auto m = dram::random_machine(32, 4, seed);
    sim::virtual_clock clock;
    std::vector<unsigned> bank_bits;
    for (std::uint64_t f : m.mapping.bank_functions()) {
      for (unsigned b : bits_of_mask(f)) bank_bits.push_back(b);
    }
    std::sort(bank_bits.begin(), bank_bits.end());
    bank_bits.erase(std::unique(bank_bits.begin(), bank_bits.end()),
                    bank_bits.end());
    const auto out = detect_functions(piles_for(m.mapping, bank_bits),
                                      bank_bits, m.total_banks(), clock);
    ASSERT_TRUE(out.success) << "seed " << seed;
    EXPECT_TRUE(gf2::same_span(out.functions, m.mapping.bank_functions()))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace dramdig::core
