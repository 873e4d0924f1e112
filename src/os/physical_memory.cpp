#include "os/physical_memory.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <new>

#include "util/expect.h"

namespace dramdig::os {

physical_memory::physical_memory(physical_memory_config config, rng r)
    : config_(config), rng_(std::move(r)) {
  DRAMDIG_EXPECTS(config_.total_bytes >= 64 * kPageSize);
  DRAMDIG_EXPECTS(config_.total_bytes % kPageSize == 0);
  DRAMDIG_EXPECTS(config_.reserved_fraction >= 0 &&
                  config_.reserved_fraction < 0.5);
  DRAMDIG_EXPECTS(config_.fragmentation >= 0 && config_.fragmentation <= 1);

  const std::uint64_t total_pages = config_.total_bytes / kPageSize;

  // Carve reserved holes: the kernel text around the bottom plus scattered
  // firmware/driver reservations, each a small power-of-two block.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> holes;  // [pfn, count)
  const std::uint64_t kernel_pages =
      std::max<std::uint64_t>(16, total_pages / 256);
  holes.emplace_back(0, kernel_pages);
  std::uint64_t reserved_budget = static_cast<std::uint64_t>(
      static_cast<double>(total_pages) * config_.reserved_fraction);
  reserved_budget = reserved_budget > kernel_pages
                        ? reserved_budget - kernel_pages
                        : 0;
  while (reserved_budget > 0) {
    // Reservations come in 256 KiB..4 MiB blocks; keeping them coarse
    // leaves the multi-MiB contiguous free runs a freshly booted kernel
    // really has (Algorithm 1 needs runs of up to 2^(b_max+1) bytes).
    const std::uint64_t chunk = std::min<std::uint64_t>(
        reserved_budget, std::uint64_t{64} << rng_.below(5));
    const std::uint64_t at = rng_.below(total_pages - chunk);
    holes.emplace_back(at, chunk);
    reserved_budget -= chunk;
  }
  // The fragmentation grid below emits its holes in increasing position,
  // so only the kernel and reservation holes need sorting; one merge then
  // orders all.
  const auto by_position = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  std::sort(holes.begin(), holes.end(), by_position);
  const std::ptrdiff_t reserved_holes = std::ssize(holes);
  // Fragmentation pins used pages on a jittered grid whose spacing shrinks
  // exponentially with the level — at 0.1 free runs span tens of MiB, near
  // 1.0 nothing larger than a few hundred KiB survives. Uniform random
  // holes would NOT model this: even thousands of them leave multi-MiB
  // gaps with high probability.
  if (config_.fragmentation > 0.0) {
    const double exponent = 16.0 * (1.0 - config_.fragmentation);
    const std::uint64_t spacing = std::max<std::uint64_t>(
        32, static_cast<std::uint64_t>(std::pow(2.0, exponent)));
    for (std::uint64_t at = spacing / 2; at + 16 < total_pages;
         at += spacing) {
      const std::uint64_t jitter = rng_.below(std::max<std::uint64_t>(
          1, spacing / 2));
      const std::uint64_t pos =
          std::min(at + jitter, total_pages - 16);
      holes.emplace_back(pos, 4 + rng_.below(12));
    }
  }
  std::inplace_merge(holes.begin(), holes.begin() + reserved_holes,
                     holes.end(), by_position);

  // Free list = complement of the holes.
  std::uint64_t cursor = 0;
  for (const auto& [at, count] : holes) {
    if (at > cursor) free_list_.push_back({cursor, at - cursor});
    cursor = std::max(cursor, at + count);
  }
  if (cursor < total_pages) free_list_.push_back({cursor, total_pages - cursor});
}

std::uint64_t physical_memory::free_bytes() const noexcept {
  std::uint64_t pages = 0;
  for (const extent& e : free_list_) pages += e.page_count;
  return pages * kPageSize;
}

namespace {

/// Order statistics over the live free-list slots, so exhausted extents
/// can stay in place as tombstones. Slots are cut into blocks of kBlock;
/// each block keeps the sorted offsets of its live slots, and a Fenwick
/// tree over the blocks' live counts finds the block holding the k-th
/// live slot. kth costs O(log(n / kBlock)), kill O(log(n / kBlock) +
/// kBlock). Every kill forces a kth, so kth is the hot call: a plain
/// Fenwick tree over single slots would pay a dependent load per level
/// of a log2(n)-deep descent for each one.
class live_slots {
 public:
  static constexpr std::size_t kBlock = 256;  // offsets fit a uint8_t

  explicit live_slots(std::size_t n)
      : offsets_(n),
        sizes_((n + kBlock - 1) / kBlock),
        top_(std::bit_ceil(std::max<std::size_t>(sizes_.size(), 1))),
        tree_(top_ + 1),
        live_(n) {
    for (std::size_t i = 0; i < n; ++i) {
      offsets_[i] = static_cast<std::uint8_t>(i % kBlock);
    }
    // Linear build of the Fenwick tree over the block counts.
    for (std::size_t i = 1; i <= top_; ++i) {
      if (i <= sizes_.size()) {
        sizes_[i - 1] =
            static_cast<std::uint16_t>(std::min(kBlock, n - (i - 1) * kBlock));
        tree_[i] += sizes_[i - 1];
      }
      const std::size_t parent = i + (i & -i);
      if (parent <= top_) tree_[parent] += tree_[i];
    }
  }

  [[nodiscard]] std::size_t count() const noexcept { return live_; }

  void kill(std::size_t slot) {
    const std::size_t block = slot / kBlock;
    const auto first =
        offsets_.begin() + static_cast<std::ptrdiff_t>(block * kBlock);
    const auto last = first + sizes_[block];
    const auto at =
        std::lower_bound(first, last, static_cast<std::uint8_t>(slot % kBlock));
    std::copy(at + 1, last, at);
    --sizes_[block];
    for (std::size_t i = block + 1; i <= top_; i += i & -i) --tree_[i];
    --live_;
  }

  /// Slot of the k-th live entry, k in [0, count()).
  [[nodiscard]] std::size_t kth(std::size_t k) const {
    // Fenwick descent; tree_[top_] counts every live slot, so the search
    // starts one level below it.
    std::size_t block = 0;
    for (std::size_t step = top_ / 2; step > 0; step /= 2) {
      if (tree_[block + step] <= k) {
        block += step;
        k -= tree_[block];
      }
    }
    return block * kBlock + offsets_[block * kBlock + k];
  }

 private:
  std::vector<std::uint8_t> offsets_;  ///< per block: live offsets, sorted
  std::vector<std::uint16_t> sizes_;   ///< live slots per block
  std::size_t top_;                    ///< power of two >= block count
  std::vector<std::size_t> tree_;      ///< 1-based Fenwick tree over sizes_
  std::size_t live_;
};

bool by_first_pfn(const extent& a, const extent& b) {
  return a.first_pfn < b.first_pfn;
}

}  // namespace

std::vector<extent> physical_memory::allocate(std::uint64_t bytes) {
  DRAMDIG_EXPECTS(bytes > 0);
  std::uint64_t pages_needed = (bytes + kPageSize - 1) / kPageSize;
  std::vector<extent> out;

  // Buddy-like behaviour: one allocation is served in grabs that
  // *continue the same free extent* most of the time, so a big request
  // yields long physically contiguous runs — the property Algorithm 1
  // depends on. Fragmentation both raises the chance of jumping to a
  // different extent between grabs and shrinks the grab itself (a
  // fragmented buddy system only has small free blocks), so a fragmented
  // system yields short runs scattered across the space.
  const std::uint64_t grab_pages = std::max<std::uint64_t>(
      8, static_cast<std::uint64_t>(
             static_cast<double>(kHugePageSize / kPageSize) *
             (1.0 - config_.fragmentation)));
  // An exhausted extent becomes a tombstone (page_count == 0) instead of
  // being erased; a jump draws among the live extents only, so the k-th
  // live slot is exactly the extent an erase-compacted list holds at k.
  live_slots live(free_list_.size());
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t current = kNone;  // no extent yet -> pick fresh
  while (pages_needed > 0) {
    if (current == kNone || rng_.chance(config_.fragmentation)) {
      // A live current extent means the list is not empty, so this is
      // the only place exhaustion can show.
      if (live.count() == 0) {
        free(out);  // the merge also drops the tombstones
        throw std::bad_alloc();
      }
      current = live.kth(rng_.below(live.count()));
    }
    extent& src = free_list_[current];
    const std::uint64_t take =
        std::min({pages_needed, src.page_count, grab_pages});
    const extent grabbed{src.first_pfn, take};
    src.first_pfn += take;
    src.page_count -= take;
    if (src.page_count == 0) {
      live.kill(current);
      current = kNone;  // force re-pick
    }
    // Merge into the previous grab when physically adjacent, so callers
    // see true run lengths.
    if (!out.empty() &&
        out.back().first_pfn + out.back().page_count == grabbed.first_pfn) {
      out.back().page_count += grabbed.page_count;
    } else {
      out.push_back(grabbed);
    }
    pages_needed -= take;
  }
  std::erase_if(free_list_, [](const extent& e) { return e.page_count == 0; });
  return out;
}

std::vector<extent> physical_memory::allocate_huge_pages(unsigned count) {
  std::vector<extent> out;
  const std::uint64_t huge_pages = kHugePageSize / kPageSize;
  for (unsigned i = 0; i < count; ++i) {
    // Find a free extent containing an aligned 2 MiB run.
    bool found = false;
    // Randomize the scan start so huge pages also scatter.
    const std::size_t n = free_list_.size();
    const std::size_t start = n == 0 ? 0 : rng_.below(n);
    for (std::size_t k = 0; k < n && !found; ++k) {
      const std::size_t idx = (start + k) % n;
      const extent e = free_list_[idx];
      const std::uint64_t aligned_first =
          (e.first_pfn + huge_pages - 1) / huge_pages * huge_pages;
      if (aligned_first + huge_pages > e.first_pfn + e.page_count) continue;
      // Split in place: [e.first, aligned_first) and the tail after the
      // run stay free. The run keeps them apart and the list is
      // coalesced, so neither piece touches another free extent.
      const extent head{e.first_pfn, aligned_first - e.first_pfn};
      const extent tail{aligned_first + huge_pages,
                        e.first_pfn + e.page_count - aligned_first -
                            huge_pages};
      const auto at = free_list_.begin() + static_cast<std::ptrdiff_t>(idx);
      if (head.page_count > 0) {
        *at = head;
        if (tail.page_count > 0) free_list_.insert(at + 1, tail);
      } else if (tail.page_count > 0) {
        *at = tail;
      } else {
        free_list_.erase(at);
      }
      out.push_back({aligned_first, huge_pages});
      found = true;
    }
    if (!found) break;  // partial success, like a real THP allocation
  }
  return out;
}

void physical_memory::free(const std::vector<extent>& extents) {
  // One merge of the sorted returns into the free list, coalescing as it
  // goes and dropping empty entries (allocate's tombstones among them):
  // linear in the list, where per-extent insertion is quadratic.
  std::vector<extent> returned = extents;
  std::sort(returned.begin(), returned.end(), by_first_pfn);
  std::vector<extent> merged(free_list_.size() + returned.size());
  std::merge(free_list_.begin(), free_list_.end(), returned.begin(),
             returned.end(), merged.begin(), by_first_pfn);
  std::size_t kept = 0;
  for (const extent& e : merged) {
    if (e.page_count == 0) continue;
    if (kept > 0) {
      extent& last = merged[kept - 1];
      DRAMDIG_EXPECTS(last.first_pfn + last.page_count <= e.first_pfn);
      if (last.first_pfn + last.page_count == e.first_pfn) {
        last.page_count += e.page_count;
        continue;
      }
    }
    merged[kept++] = e;
  }
  merged.resize(kept);
  free_list_ = std::move(merged);
}

}  // namespace dramdig::os
