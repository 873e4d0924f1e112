#include "os/address_space.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/rng.h"

namespace dramdig::os {
namespace {

struct space_fixture {
  physical_memory pm;
  address_space space;

  explicit space_fixture(std::uint64_t bytes = 1ull << 28,
                         double frag = 0.05, std::uint64_t seed = 2)
      : pm([&] {
          physical_memory_config cfg{};
          cfg.total_bytes = bytes;
          cfg.fragmentation = frag;
          return cfg;
        }(), rng(seed)),
        space(pm) {}
};

TEST(AddressSpace, MapBufferBacksEveryPage) {
  space_fixture f;
  const auto& region = f.space.map_buffer(1ull << 20);
  EXPECT_EQ(region.byte_count(), 1ull << 20);
  EXPECT_EQ(region.page_count(), (1ull << 20) / kPageSize);
}

TEST(AddressSpace, TranslateIsPageCoherent) {
  space_fixture f;
  const auto& region = f.space.map_buffer(1ull << 20);
  const std::uint64_t va = region.va_base() + 5 * kPageSize + 123;
  const std::uint64_t pa = region.translate(va);
  EXPECT_EQ(pa % kPageSize, 123u);
  EXPECT_TRUE(region.contains_page(pa / kPageSize));
}

TEST(AddressSpace, TranslateRejectsOutOfRange) {
  space_fixture f;
  const auto& region = f.space.map_buffer(1ull << 16);
  EXPECT_THROW((void)region.translate(region.va_base() + (1ull << 20)),
               contract_violation);
  EXPECT_THROW((void)region.translate(region.va_base() - 1),
               contract_violation);
}

TEST(AddressSpace, ReverseFindsVirtualAddress) {
  space_fixture f;
  const auto& region = f.space.map_buffer(1ull << 18);
  const std::uint64_t va = region.va_base() + 17 * kPageSize + 64;
  const std::uint64_t pa = region.translate(va);
  const auto back = region.reverse(pa);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, va);
}

TEST(AddressSpace, ReverseReturnsNulloptForForeignFrames) {
  space_fixture f;
  const auto& region = f.space.map_buffer(1ull << 16);
  // The kernel-reserved frame 0 is never part of a user buffer.
  EXPECT_FALSE(region.reverse(0).has_value());
}

TEST(AddressSpace, PfnRunsAreSortedDisjointAndComplete) {
  space_fixture f;
  const auto& region = f.space.map_buffer(1ull << 22);
  const auto& runs = region.pfn_runs();
  ASSERT_FALSE(runs.empty());
  std::uint64_t pages = runs.front().page_count;
  for (std::size_t i = 1; i < runs.size(); ++i) {
    // Strictly ascending and disjoint: every frame appears exactly once.
    EXPECT_GE(runs[i].first_pfn, runs[i - 1].end_pfn());
    EXPECT_EQ(runs[i].pfn_prefix, runs[i - 1].pfn_prefix +
                                      runs[i - 1].page_count);
    pages += runs[i].page_count;
  }
  EXPECT_EQ(pages, region.page_count());
}

TEST(AddressSpace, PfnAtEnumeratesFramesAscending) {
  space_fixture f;
  const auto& region = f.space.map_buffer(1ull << 20);
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < region.page_count(); ++i) {
    const std::uint64_t pfn = region.pfn_at(i);
    if (i > 0) {
      EXPECT_GT(pfn, prev);
    }
    EXPECT_TRUE(region.contains_page(pfn));
    prev = pfn;
  }
}

TEST(AddressSpace, CoversRangeOnContiguousBacking) {
  space_fixture f(1ull << 28, 0.0, 3);
  const auto& region = f.space.map_buffer(1ull << 24);
  // With zero fragmentation the buffer is served in long runs; find one
  // extent and check coverage inside it.
  const auto& backing = region.backing();
  const auto widest = std::max_element(
      backing.begin(), backing.end(),
      [](const extent& a, const extent& b) {
        return a.page_count < b.page_count;
      });
  ASSERT_NE(widest, backing.end());
  EXPECT_TRUE(region.covers_range(widest->first_byte(),
                                  widest->first_byte() + widest->byte_count()));
  // One byte past the run must fail unless the next frame happens to be
  // present; probing far beyond the space definitely fails.
  EXPECT_FALSE(region.covers_range(widest->first_byte(),
                                   widest->first_byte() + (1ull << 40)));
}

TEST(AddressSpace, CoversRangeDetectsHoles) {
  space_fixture f;
  const auto& region = f.space.map_buffer(1ull << 18);
  // A range starting at an unmapped frame is not covered.
  EXPECT_FALSE(region.covers_range(0, kPageSize));
}

/// Checks every frame lookup of `region` against a brute-force frame
/// table, for every frame from 0 to two past the last run: frames below
/// the first run, between runs, at both ends of each run and past the
/// end.
void expect_lookups_match_frames(const mapping_region& region) {
  std::uint64_t limit = 0;
  for (const extent& e : region.backing()) {
    limit = std::max(limit, e.first_pfn + e.page_count);
  }
  limit += 2;
  constexpr std::uint64_t kNone = ~std::uint64_t{0};
  std::vector<std::uint64_t> page_of(limit, kNone);  // frame -> VA page
  std::uint64_t page = 0;
  for (const extent& e : region.backing()) {
    for (std::uint64_t k = 0; k < e.page_count; ++k) {
      page_of[e.first_pfn + k] = page++;
    }
  }
  // backed_before[f] = backed frames below f, for O(1) range coverage.
  std::vector<std::uint64_t> backed_before(limit + 1, 0);
  std::vector<std::uint64_t> frames;
  for (std::uint64_t f = 0; f < limit; ++f) {
    const bool backed = page_of[f] != kNone;
    backed_before[f + 1] = backed_before[f] + (backed ? 1 : 0);
    if (backed) frames.push_back(f);
  }
  ASSERT_EQ(frames.size(), region.page_count());

  std::size_t mismatches = 0;
  const auto covered = [&](std::uint64_t first, std::uint64_t last) {
    last = std::min(last, limit);  // frames at or past limit are unbacked
    return first >= last || backed_before[last] - backed_before[first] ==
                                last - first;
  };
  for (std::uint64_t f = 0; f < limit; ++f) {
    const bool backed = page_of[f] != kNone;
    mismatches += region.contains_page(f) != backed;
    const std::uint64_t pa = f * kPageSize + 100;
    const auto va = region.reverse(pa);
    mismatches += va.has_value() != backed;
    if (backed && va.has_value()) {
      mismatches += *va != region.va_base() + page_of[f] * kPageSize + 100;
    }
    for (const std::uint64_t len : {1ull, 2ull, 3ull, 17ull, 300ull}) {
      // Page-aligned, and a byte range that rounds out to the same pages.
      const bool want = covered(f, f + len);
      mismatches += region.covers_range(f * kPageSize,
                                        (f + len) * kPageSize) != want;
      mismatches += region.covers_range(f * kPageSize + 100,
                                        (f + len) * kPageSize - 100) != want;
    }
  }
  for (std::uint64_t i = 0; i < frames.size(); ++i) {
    mismatches += region.pfn_at(i) != frames[i];
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_THROW((void)region.pfn_at(region.page_count()), contract_violation);
}

TEST(AddressSpace, FrameLookupsMatchBruteForceOnFragmentedRegions) {
  for (const double frag : {0.6, 0.9}) {
    space_fixture f(1ull << 31, frag, 5);
    const auto& region = f.space.map_buffer(1ull << 29);
    SCOPED_TRACE(frag);
    EXPECT_GT(region.pfn_runs().size(), 1000u);
    expect_lookups_match_frames(region);
  }
}

TEST(AddressSpace, FrameLookupsMatchBruteForceOnSmallRegions) {
  // One run; runs that are physically adjacent but not in VA order (so
  // coverage crosses runs); and the empty region.
  expect_lookups_match_frames(mapping_region(0x10000, {{100, 8}}));
  expect_lookups_match_frames(
      mapping_region(0x10000, {{50, 4}, {10, 5}, {15, 3}, {54, 1}, {2, 1}}));
  const mapping_region empty(0x10000, {});
  expect_lookups_match_frames(empty);
  EXPECT_FALSE(empty.contains_page(0));
  EXPECT_FALSE(empty.covers_range(0, 1));
}

TEST(AddressSpace, RegionsRemainValidAcrossLaterMappings) {
  space_fixture f;
  const auto& first = f.space.map_buffer(1ull << 16);
  const std::uint64_t va = first.va_base();
  for (int i = 0; i < 20; ++i) (void)f.space.map_buffer(1ull << 16);
  // The reference taken before the loop still works (deque storage).
  EXPECT_EQ(first.va_base(), va);
  EXPECT_EQ(first.byte_count(), 1ull << 16);
}

TEST(AddressSpace, DistinctVirtualRanges) {
  space_fixture f;
  const auto& a = f.space.map_buffer(1ull << 16);
  const auto& b = f.space.map_buffer(1ull << 16);
  EXPECT_GE(b.va_base(), a.va_base() + a.byte_count());
}

TEST(AddressSpace, HugePageBufferPrefersAlignedBacking) {
  space_fixture f(1ull << 28, 0.05, 7);
  const auto& region = f.space.map_buffer_hugepage(8 * kHugePageSize);
  EXPECT_EQ(region.byte_count(), 8 * kHugePageSize);
  std::size_t aligned_runs = 0;
  for (const auto& e : region.backing()) {
    if (e.first_byte() % kHugePageSize == 0 &&
        e.byte_count() % kHugePageSize == 0) {
      ++aligned_runs;
    }
  }
  EXPECT_GT(aligned_runs, 0u);
}

}  // namespace
}  // namespace dramdig::os
