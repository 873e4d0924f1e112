#include "os/physical_memory.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <new>
#include <set>

#include "util/rng.h"

namespace dramdig::os {
namespace {

physical_memory make(std::uint64_t bytes, double frag = 0.1,
                     std::uint64_t seed = 1) {
  physical_memory_config cfg{};
  cfg.total_bytes = bytes;
  cfg.fragmentation = frag;
  return physical_memory(cfg, rng(seed));
}

TEST(PhysicalMemory, ReservesKernelMemory) {
  auto pm = make(1ull << 30);
  EXPECT_LT(pm.free_bytes(), 1ull << 30);
  EXPECT_GT(pm.free_bytes(), (1ull << 30) * 9 / 10);
}

TEST(PhysicalMemory, AllocateYieldsRequestedPageCount) {
  auto pm = make(1ull << 30);
  const auto extents = pm.allocate(10 * kPageSize);
  std::uint64_t pages = 0;
  for (const auto& e : extents) pages += e.page_count;
  EXPECT_EQ(pages, 10u);
}

TEST(PhysicalMemory, AllocateRoundsUpPartialPages) {
  auto pm = make(1ull << 30);
  const auto extents = pm.allocate(kPageSize + 1);
  std::uint64_t pages = 0;
  for (const auto& e : extents) pages += e.page_count;
  EXPECT_EQ(pages, 2u);
}

TEST(PhysicalMemory, AllocationsDoNotOverlap) {
  auto pm = make(1ull << 28);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 16; ++i) {
    for (const auto& e : pm.allocate(1ull << 20)) {
      for (std::uint64_t p = 0; p < e.page_count; ++p) {
        EXPECT_TRUE(seen.insert(e.first_pfn + p).second)
            << "frame handed out twice";
      }
    }
  }
}

TEST(PhysicalMemory, LowFragmentationYieldsLongRuns) {
  auto pm = make(8ull << 30, 0.05, 3);
  const auto extents = pm.allocate(1ull << 30);
  std::uint64_t longest = 0;
  for (const auto& e : extents) longest = std::max(longest, e.page_count);
  // Algorithm 1 needs ~2^(b_max+1) contiguous bytes; 8 MiB = 2048 pages.
  EXPECT_GE(longest, 4096u);
}

TEST(PhysicalMemory, HighFragmentationBreaksRuns) {
  auto low = make(2ull << 30, 0.02, 4);
  auto high = make(2ull << 30, 0.9, 4);
  auto longest_of = [](const std::vector<extent>& es) {
    std::uint64_t l = 0;
    for (const auto& e : es) l = std::max(l, e.page_count);
    return l;
  };
  EXPECT_GT(longest_of(low.allocate(1ull << 29)),
            4 * longest_of(high.allocate(1ull << 29)));
}

TEST(PhysicalMemory, ExhaustionThrowsBadAlloc) {
  auto pm = make(1ull << 26);  // 64 MiB
  EXPECT_THROW((void)pm.allocate(1ull << 30), std::bad_alloc);
}

TEST(PhysicalMemory, ExhaustionRollsBackPartialGrab) {
  auto pm = make(1ull << 26);
  const std::uint64_t before = pm.free_bytes();
  EXPECT_THROW((void)pm.allocate(1ull << 30), std::bad_alloc);
  EXPECT_EQ(pm.free_bytes(), before);
}

/// Fails the test if any frame appears in two extents of `extents`.
void expect_disjoint(std::vector<extent> extents) {
  std::sort(extents.begin(), extents.end(),
            [](const extent& a, const extent& b) {
              return a.first_pfn < b.first_pfn;
            });
  for (std::size_t i = 1; i < extents.size(); ++i) {
    ASSERT_LE(extents[i - 1].first_pfn + extents[i - 1].page_count,
              extents[i].first_pfn)
        << "frame handed out twice";
  }
}

std::uint64_t pages_in(const std::vector<extent>& extents) {
  std::uint64_t pages = 0;
  for (const auto& e : extents) pages += e.page_count;
  return pages;
}

// At 0.9 the free list holds thousands of small extents; a request one
// page larger than all free memory exhausts every one of them before it
// throws, and the rollback must return each frame exactly once.
TEST(PhysicalMemory, BadAllocAfterExhaustingManyExtentsRestoresFreeBytes) {
  auto pm = make(1ull << 30, 0.9, 12);
  const auto held = pm.allocate(1ull << 28);
  const std::uint64_t before = pm.free_bytes();
  EXPECT_THROW((void)pm.allocate(before + kPageSize), std::bad_alloc);
  EXPECT_EQ(pm.free_bytes(), before);

  const std::uint64_t half = before / 2 / kPageSize * kPageSize;
  const auto after = pm.allocate(half);
  EXPECT_EQ(pages_in(after), half / kPageSize);
  EXPECT_EQ(pm.free_bytes(), before - half);
  std::vector<extent> all = held;
  all.insert(all.end(), after.begin(), after.end());
  expect_disjoint(all);
}

TEST(PhysicalMemory, RepeatedFragmentedAllocationsNeverRepeatAFrame) {
  auto pm = make(4ull << 30, 0.6, 13);
  std::vector<extent> all;
  for (int i = 0; i < 6; ++i) {
    const auto got = pm.allocate(1ull << 29);
    EXPECT_EQ(pages_in(got), (1ull << 29) / kPageSize);
    all.insert(all.end(), got.begin(), got.end());
  }
  expect_disjoint(all);
}

TEST(PhysicalMemory, FreeReturnsMemory) {
  auto pm = make(1ull << 28);
  const std::uint64_t before = pm.free_bytes();
  const auto extents = pm.allocate(1ull << 24);
  EXPECT_LT(pm.free_bytes(), before);
  pm.free(extents);
  EXPECT_EQ(pm.free_bytes(), before);
}

TEST(PhysicalMemory, DoubleFreeIsAContractViolationThatKeepsTheFreeList) {
  auto pm = make(1ull << 28, 0.3, 14);
  const auto extents = pm.allocate(1ull << 24);
  pm.free(extents);
  const std::uint64_t before = pm.free_bytes();
  EXPECT_THROW(pm.free(extents), contract_violation);
  EXPECT_EQ(pm.free_bytes(), before);
}

TEST(PhysicalMemory, FreeCoalescesSoReallocationSucceeds) {
  auto pm = make(1ull << 27, 0.0, 9);
  for (int round = 0; round < 5; ++round) {
    const auto a = pm.allocate(1ull << 26);
    pm.free(a);
  }
  // If coalescing failed the free list would splinter and eventually an
  // allocation of the same size would fail.
  const auto final_alloc = pm.allocate(1ull << 26);
  EXPECT_FALSE(final_alloc.empty());
}

TEST(PhysicalMemory, HugePagesAreAlignedAndSized) {
  auto pm = make(1ull << 30, 0.1, 5);
  const auto huge = pm.allocate_huge_pages(8);
  EXPECT_EQ(huge.size(), 8u);
  for (const auto& e : huge) {
    EXPECT_EQ(e.byte_count(), kHugePageSize);
    EXPECT_EQ(e.first_byte() % kHugePageSize, 0u);
  }
}

TEST(PhysicalMemory, HugePagePartialSuccessWhenFragmented) {
  auto pm = make(1ull << 26, 0.95, 6);
  // Chew up memory in small allocations first.
  for (int i = 0; i < 40; ++i) (void)pm.allocate(1ull << 19);
  const auto huge = pm.allocate_huge_pages(64);
  EXPECT_LT(huge.size(), 64u);  // cannot fully satisfy; returns what it found
}

TEST(PhysicalMemory, RejectsBadConfig) {
  physical_memory_config cfg{};
  cfg.total_bytes = 12345;  // not page aligned
  EXPECT_THROW(physical_memory(cfg, rng(1)), contract_violation);
  cfg.total_bytes = 1ull << 30;
  cfg.fragmentation = 1.5;
  EXPECT_THROW(physical_memory(cfg, rng(1)), contract_violation);
}

TEST(PhysicalMemory, DeterministicPerSeed) {
  auto a = make(1ull << 28, 0.3, 11);
  auto b = make(1ull << 28, 0.3, 11);
  const auto ea = a.allocate(1ull << 24);
  const auto eb = b.allocate(1ull << 24);
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].first_pfn, eb[i].first_pfn);
    EXPECT_EQ(ea[i].page_count, eb[i].page_count);
  }
}

}  // namespace
}  // namespace dramdig::os
