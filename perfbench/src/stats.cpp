#include "stats.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

namespace perfbench {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median of no samples");
  const std::size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  const double upper = samples[mid];
  if (samples.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(samples.begin(), samples.begin() + mid);
  return (lower + upper) / 2.0;
}

tail_stat tail(std::vector<double> samples, std::size_t min_beyond) {
  static constexpr std::array<double, 9> kLadder{99.9, 99.5, 99, 98, 95,
                                                 90,   80,   75, 50};
  tail_stat out;
  out.samples = samples.size();
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  for (const double p : kLadder) {
    // Nearest rank: the smallest rank r with r/n >= p/100 (1-based).
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    if (rank == 0 || n - rank < min_beyond) continue;
    out.available = true;
    out.percentile = p;
    out.value = samples[rank - 1];
    out.beyond = n - rank;
    return out;
  }
  return out;
}

double jobs_per_second(std::size_t jobs, double seconds) {
  if (!(seconds > 0.0)) {
    throw std::invalid_argument("throughput over a non-positive duration");
  }
  return static_cast<double>(jobs) / seconds;
}

std::uint64_t job_seed(std::uint64_t workload_seed, int machine,
                       std::uint32_t replica) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(machine)) << 32) |
      replica;
  const std::uint64_t s = splitmix64(splitmix64(workload_seed) ^ key);
  return s == 0 ? 1 : s;
}

}  // namespace perfbench
