#include "core/plan_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace dramdig::core {
namespace {

/// Algorithm 1's pool shape: `base ^ s` for every subset `s` of `support`.
/// Every member shares the bits outside `support` — on the paper machines
/// that includes the low offset bits, which is what a slot hash masked to
/// its low bits must survive.
std::vector<std::uint64_t> pool_shape(std::uint64_t base,
                                      std::uint64_t support) {
  std::vector<std::uint64_t> pool;
  std::uint64_t s = 0;
  do {
    pool.push_back(base ^ s);
    s = (s - support) & support;
  } while (s != 0);
  return pool;
}

struct pool_case {
  const char* machine;
  std::uint64_t base;
  std::uint64_t support;
};

// No.6 (16,384 members) and No.2 (8,192 members).
constexpr pool_case kPools[] = {
    {"No.6", 0x4000c00, 0x7ff380},
    {"No.2", 0x2000c00, 0x3ff380},
};

/// The index's own load rule: the smallest power of two (at least 64)
/// that holds `n` keys below 0.7 load.
std::size_t slots_for(std::size_t n) {
  std::size_t slots = 64;
  while ((n + 1) * 10 > slots * 7) slots <<= 1;
  return slots;
}

template <typename Hash>
std::size_t distinct_home_slots(std::size_t n, Hash&& hash) {
  const std::size_t mask = slots_for(n) - 1;
  std::set<std::size_t> homes;
  for (std::size_t i = 0; i < n; ++i) homes.insert(hash(i) & mask);
  return homes.size();
}

TEST(PlanIndex, PairHashSpreadsFounderScanPairs) {
  // Founder scan: one pivot against every other pool member, keyed in the
  // plan's canonical (low, high) order. Ideal spread at this load is
  // ~0.79 n distinct home slots; a hash whose slot bits ignore the high
  // address bits lands near 0.004 n and probes long chains.
  for (const pool_case& c : kPools) {
    const auto pool = pool_shape(c.base, c.support);
    const std::uint64_t pivot = pool.front();
    std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs;
    for (std::size_t i = 1; i < pool.size(); ++i) {
      pairs.emplace_back(std::min(pivot, pool[i]), std::max(pivot, pool[i]));
    }
    const std::size_t homes =
        distinct_home_slots(pairs.size(), [&](std::size_t i) {
          return plan_index::hash_pair(pairs[i].first, pairs[i].second);
        });
    EXPECT_GE(homes * 10, pairs.size() * 7)
        << c.machine << ": " << homes << " home slots for " << pairs.size()
        << " pairs";
  }
}

TEST(PlanIndex, AddressHashSpreadsPoolMembers) {
  for (const pool_case& c : kPools) {
    const auto pool = pool_shape(c.base, c.support);
    const std::size_t homes =
        distinct_home_slots(pool.size(), [&](std::size_t i) {
          return plan_index::hash_addr(pool[i]);
        });
    EXPECT_GE(homes * 10, pool.size() * 7)
        << c.machine << ": " << homes << " home slots for " << pool.size()
        << " addresses";
  }
}

/// Drives one index with a mixed, deterministic operation stream and
/// checks every answer against std::map, sweeping every key after each
/// growth step of either table.
void check_against_reference(bool reserved) {
  plan_index idx;
  if (reserved) idx.reserve(20000);

  const auto no6 = pool_shape(0x4000c00, 0x7ff380);
  rng pick(2024);
  // Half pool-shaped keys, half random cache-line addresses.
  const auto key = [&]() -> std::uint64_t {
    if (pick.below(2) == 0) return no6[pick.below(no6.size())];
    return pick.below(std::uint64_t{1} << 34) & ~63ull;
  };

  std::map<std::pair<std::uint64_t, std::uint64_t>, char> memo_ref;
  std::map<std::uint64_t, std::size_t> rec_ref;
  // Mirrors of both tables' growth rule (insert past 0.7 load doubles).
  std::size_t memo_slots = 64;
  std::size_t rec_slots = reserved ? slots_for(20000) : 64;

  const auto sweep = [&] {
    for (const auto& [k, v] : memo_ref) {
      ASSERT_EQ(idx.memo_find(k.first, k.second), v);
    }
    for (const auto& [addr, rec] : rec_ref) ASSERT_EQ(idx.find(addr), rec);
  };

  constexpr int kOps = 120000;
  for (int op = 0; op < kOps; ++op) {
    switch (pick.below(4)) {
      case 0: {  // memo_store, overwriting when the pair was seen
        std::uint64_t a = 0, b = 0;
        if (!memo_ref.empty() && pick.below(4) == 0) {
          auto it = memo_ref.begin();
          std::advance(it, pick.below(std::min<std::size_t>(
                               memo_ref.size(), 64)));
          a = it->first.first;
          b = it->first.second;
        } else {
          a = key();
          b = key();
        }
        const char val = static_cast<char>(pick.below(2));
        const bool fresh = memo_ref.find({a, b}) == memo_ref.end();
        const bool grows =
            fresh && (memo_ref.size() + 1) * 10 > memo_slots * 7;
        if (grows) memo_slots <<= 1;
        idx.memo_store(a, b, val);
        memo_ref[{a, b}] = val;
        if (grows) sweep();
        break;
      }
      case 1: {  // memo_find on a mix of seen and unseen pairs
        const std::uint64_t a = key(), b = key();
        const auto it = memo_ref.find({a, b});
        ASSERT_EQ(idx.memo_find(a, b),
                  it == memo_ref.end() ? -1 : it->second);
        break;
      }
      case 2: {  // find_or_create
        const std::uint64_t addr = key();
        const bool fresh = rec_ref.find(addr) == rec_ref.end();
        const bool grows =
            fresh && (rec_ref.size() + 1) * 10 > rec_slots * 7;
        if (grows) rec_slots <<= 1;
        const std::size_t rec = idx.find_or_create(addr);
        if (fresh) {
          ASSERT_EQ(rec, rec_ref.size());
          rec_ref[addr] = rec;
        } else {
          ASSERT_EQ(rec, rec_ref[addr]);
        }
        if (grows) sweep();
        break;
      }
      default: {  // find
        const std::uint64_t addr = key();
        const auto it = rec_ref.find(addr);
        ASSERT_EQ(idx.find(addr),
                  it == rec_ref.end() ? plan_index::npos : it->second);
        break;
      }
    }
  }
  sweep();
  // The stream must have exercised several growth steps of both tables.
  EXPECT_GE(memo_slots, std::size_t{1} << 15);
  EXPECT_GE(rec_slots, std::size_t{1} << 15);
}

TEST(PlanIndex, MatchesReferenceMapAcrossGrowth) {
  check_against_reference(/*reserved=*/false);
}

TEST(PlanIndex, MatchesReferenceMapAfterReserve) {
  check_against_reference(/*reserved=*/true);
}

}  // namespace
}  // namespace dramdig::core
