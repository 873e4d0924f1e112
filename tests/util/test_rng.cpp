#include "util/rng.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <random>

namespace dramdig {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
  rng a(99), b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.below(1000), b.below(1000));
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.below(1'000'000) == b.below(1'000'000)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange) {
  rng r(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.below(17), 17u);
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  rng r(6);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(r.below(1), 0u);
}

TEST(Rng, BelowZeroRejected) {
  rng r(7);
  EXPECT_THROW((void)r.below(0), contract_violation);
}

TEST(Rng, BetweenInclusive) {
  rng r(8);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.between(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  rng r(10);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  rng r(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += r.chance(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, GaussianMoments) {
  rng r(12);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = r.gaussian(100, 15);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 100, 1.0);
  EXPECT_NEAR(var, 225, 20.0);
}

TEST(Rng, ForkProducesIndependentStream) {
  rng a(13);
  rng child = a.fork();
  // The child stream should not mirror the parent.
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.below(1'000'000) == child.below(1'000'000)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, ForkIsDeterministicGivenParentSeed) {
  rng a(14), b(14);
  rng ca = a.fork(), cb = b.fork();
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(ca.below(1000), cb.below(1000));
  }
}

// ---------------------------------------------------------------------------
// Identity with the standard library: the engine and every draw must return
// exactly what std::mt19937_64 and the std distributions return, so every
// seeded run stays bit-identical.

TEST(MersenneTwister64, MatchesStdEngineOverMillionsOfDraws) {
  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{5489},
        std::uint64_t{0x9E3779B97F4A7C15}, ~std::uint64_t{0}}) {
    mersenne_twister_64 ours(seed);
    std::mt19937_64 reference(seed);
    std::size_t mismatches = 0;
    for (int i = 0; i < (1 << 20); ++i) mismatches += ours() != reference();
    EXPECT_EQ(mismatches, 0u) << "seed " << seed;
  }
}

TEST(MersenneTwister64, StandardCheckValue) {
  // [rand.predef]: the 10000th consecutive invocation of a
  // default-constructed mt19937_64 produces 9981545732273789042.
  mersenne_twister_64 engine;
  for (int i = 1; i < 10000; ++i) (void)engine();
  EXPECT_EQ(engine(), 9981545732273789042ull);
  static_assert(mersenne_twister_64::min() == 0);
  static_assert(mersenne_twister_64::max() ==
                std::numeric_limits<std::uint64_t>::max());
}

/// Returns one fixed word: feeds std::generate_canonical a chosen input.
struct fixed_word {
  using result_type = std::uint64_t;
  std::uint64_t word;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }
  result_type operator()() const { return word; }
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(RngCanonical, MatchesStdOnEdgeWords) {
  const std::uint64_t top = std::uint64_t{1} << 63;
  const std::uint64_t words[] = {
      0, 1, 2, top - 1, top, top + 1,
      // Round up across a binade: the nearest double is the next power of
      // two.
      (std::uint64_t{1} << 54) - 1, (std::uint64_t{1} << 60) - 1,
      // Ties to even just under 2^64 (double spacing there is 2^11).
      ~std::uint64_t{0} - 1024, ~std::uint64_t{0} - 1023,
      ~std::uint64_t{0} - 2048, ~std::uint64_t{0}};
  for (const std::uint64_t w : words) {
    fixed_word g{w};
    EXPECT_EQ(bits(rng::canonical(w)),
              bits(std::generate_canonical<double, 53>(g)))
        << "word " << w;
  }
  EXPECT_EQ(rng::canonical(0), 0.0);
  EXPECT_EQ(rng::canonical(top), 0.5);
  EXPECT_EQ(rng::canonical(~std::uint64_t{0}), 1.0 - 0x1p-53);
}

TEST(RngCanonical, MatchesStdOnRandomWords) {
  std::mt19937_64 words(77);
  std::size_t mismatches = 0;
  for (int i = 0; i < (1 << 20); ++i) {
    // Shift by 0..63 so every binade is exercised, not just the top one.
    const std::uint64_t w = words() >> (i % 64);
    fixed_word g{w};
    mismatches +=
        bits(rng::canonical(w)) != bits(std::generate_canonical<double, 53>(g));
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(RngIdentity, DrawsMatchStdDistributionsInterleaved) {
  for (const std::uint64_t seed : {3ull, 2024ull, 0xC0FFEEull}) {
    rng ours(seed);
    std::mt19937_64 ref(seed);
    const double probabilities[] = {0.0, 1e-9, 0.25, 0.5, 0.7, 1.0};
    const std::uint64_t bounds[] = {1, 2, 3, 7, 1u << 20, 1000003,
                                    (std::uint64_t{1} << 63) + 5,
                                    ~std::uint64_t{0}};
    std::size_t mismatches = 0;
    for (int i = 0; i < 200000; ++i) {
      switch (i % 7) {
        case 0:
          mismatches +=
              bits(ours.uniform()) !=
              bits(std::uniform_real_distribution<double>(0.0, 1.0)(ref));
          break;
        case 1: {
          const double p = probabilities[(i / 7) % 6];
          mismatches += ours.chance(p) != std::bernoulli_distribution(p)(ref);
          break;
        }
        case 2: {
          const std::uint64_t b = bounds[(i / 7) % 8];
          mismatches += ours.below(b) !=
                        std::uniform_int_distribution<std::uint64_t>(
                            0, b - 1)(ref);
          break;
        }
        case 3: {
          const std::int64_t lo = (i % 2) ? -5 : INT64_MIN;
          const std::int64_t hi = (i % 3) ? 5 : INT64_MAX;
          mismatches += ours.between(lo, hi) !=
                        std::uniform_int_distribution<std::int64_t>(lo, hi)(ref);
          break;
        }
        case 4:
          mismatches += bits(ours.gaussian(100.0, 15.0)) !=
                        bits(std::normal_distribution<double>(100.0, 15.0)(ref));
          break;
        case 5: {
          rng child = ours.fork();
          std::mt19937_64 child_ref(ref());
          for (int k = 0; k < 3; ++k) {
            mismatches += child.engine()() != child_ref();
          }
          mismatches += bits(child.uniform()) !=
                        bits(std::uniform_real_distribution<double>(0.0, 1.0)(
                            child_ref));
          break;
        }
        default:
          mismatches += ours.engine()() != ref();
          break;
      }
    }
    EXPECT_EQ(mismatches, 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace dramdig
