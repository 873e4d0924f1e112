// Pure arithmetic of the benchmark: medians, the tail-percentile rule,
// throughput, and the derivation of job seeds from the workload seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Median of `samples` (mean of the two middle values for an even count).
/// Throws std::invalid_argument on an empty input.
[[nodiscard]] double median(std::vector<double> samples);

/// A timing tail: the value at the highest percentile of a fixed ladder
/// (99.9, 99.5, 99, 98, 95, 90, 80, 75, 50) that leaves at least
/// `min_beyond` samples strictly above its nearest rank. When even the
/// median leaves fewer, the tail is unavailable and carries no value.
struct tail_stat {
  bool available = false;
  double percentile = 0.0;
  double value = 0.0;
  std::size_t samples = 0;  ///< sample count the percentile was taken over
  std::size_t beyond = 0;   ///< samples ranked above the percentile
};

[[nodiscard]] tail_stat tail(std::vector<double> samples,
                             std::size_t min_beyond = 10);

/// Jobs completed per second of host time. Throws std::invalid_argument
/// when `seconds` is not positive.
[[nodiscard]] double jobs_per_second(std::size_t jobs, double seconds);

/// Environment seed of replica `replica` of paper machine `machine`: a
/// pure function of its arguments, never 0, distinct across the machines
/// and replicas of one workload seed.
[[nodiscard]] std::uint64_t job_seed(std::uint64_t workload_seed, int machine,
                                     std::uint32_t replica);

}  // namespace perfbench
