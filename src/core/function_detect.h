// Step 2 phase 3: bank address function detection (paper Algorithm 3).
//
// Candidate functions are XOR masks over the detected bank bits. A mask
// that evaluates to a constant parity on every address of every pile is a
// candidate — the paper enumerates all 2^|bank_bits| masks; here the
// complete candidate set is computed as the GF(2) null space of the piles'
// XOR-difference matrix (O(pool * |bank_bits|) row operations; the
// enumeration survives as the brute-force reference in
// tests/core/test_function_detect.cpp). Candidates that
// are linear combinations of fewer-bit candidates are redundant (GF(2)
// reduction implements the paper's prioritize + remove_redundant); and the
// surviving log2(#banks)-sized basis must number the piles 0..#banks-1
// (check_numbering).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/virtual_clock.h"

namespace dramdig::core {

struct function_config {
  /// Virtual CPU time charged per parity evaluation / GF(2) row operation;
  /// keeps Fig. 2 honest about the software cost of the search.
  double cpu_ns_per_check = 1.0;
};

struct function_outcome {
  bool success = false;
  std::vector<std::uint64_t> functions;  ///< minimal basis
  bool numbering_ok = false;
  std::size_t raw_candidates = 0;  ///< masks surviving all piles
  std::string failure_reason;
};

[[nodiscard]] function_outcome detect_functions(
    const std::vector<std::vector<std::uint64_t>>& piles,
    const std::vector<unsigned>& bank_bits, unsigned bank_count,
    sim::virtual_clock& clock, const function_config& config = {});

}  // namespace dramdig::core
