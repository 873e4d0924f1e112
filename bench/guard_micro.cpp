// Perf-regression guard over a freshly emitted BENCH_micro.json: CI runs
// the smoke bench, then this checker, and the build fails when a tracked
// value leaves its declared bound. Every gate lives in the one table
// below; the record's own "smoke" field picks the smoke or the full bound
// of each row, so the invocation carries no thresholds.
//
// The guard deliberately does not link the library (it must stay a dumb
// reader even if the emitter is broken), so instead of util/json.h's
// parser it scans for `"key": value` inside a named section — exactly the
// shape util/json.h emits.
//
// Usage: bench_guard BENCH_micro.json
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace {

enum class gate {
  floor,    ///< value >= bound
  ceiling,  ///< value <= bound
  flag,     ///< value is `true`
};

struct gate_row {
  const char* section;
  const char* key;
  gate kind;
  double smoke;  ///< bound when the record says "smoke": true
  double full;   ///< bound for the full configuration
};

// Wall ratios carry slack for runner jitter; measurement counts and
// virtual time are deterministic, so their ceilings sit exactly at the
// values recorded when the gate was set — any growth is a regression.
constexpr gate_row kGates[] = {
    // Function detection (16 bank bits full, 14 smoke): virtual ns
    // charged by the null-space search. Falling back to the 2^B mask
    // enumeration costs ~8x (smoke) to ~32x (full) more.
    {"function_detect_synthetic", "nullspace_virtual_ns", gate::ceiling,
     130368, 522240},
    {"function_detect_synthetic", "recovered_functions", gate::flag, 0, 0},
    // The batch-native hot path must beat the scalar measure_pair loop.
    {"batched_measurement", "wall_speedup", gate::floor, 1.0, 1.0},
    // Slower of decode/measure at 100k pairs, simulated measurements per
    // host second (~20M on one core; per-access accounting would cost
    // ~30x).
    {"hot_path_throughput", "min_mps_100k", gate::floor, 2e6, 2e6},
    // Counter sampler vs the sequential MT19937-64 gaussian (~2.3x).
    {"noise_sampling", "speedup", gate::floor, 1.3, 1.3},
    // Per-job fixed path: the MT19937-64 engine against std::mt19937_64
    // (~3x) and pfn_at's branch-free search against std::upper_bound
    // (~3x), each output-identical to what it replaced.
    {"fixed_path", "engine_identical", gate::flag, 0, 0},
    {"fixed_path", "pfn_at_identical", gate::flag, 0, 0},
    {"fixed_path", "engine_speedup", gate::floor, 1.5, 1.5},
    {"fixed_path", "pfn_at_speedup", gate::floor, 1.5, 1.5},
    // 1-thread/8-thread counter-tail wall: >1 on multi-core hosts, bounded
    // below where an oversubscribed pool only adds handoff cost.
    {"counter_tail", "scaling_8t_vs_1t", gate::floor, 0.6, 0.6},
    // Dispatched decode_banks vs the pinned scalar kernel; ~1x when the
    // host lacks AVX2 (or DRAMDIG_FORCE_SCALAR_DECODE=1 pins scalar).
    {"decode_simd", "speedup", gate::floor, 0.8, 0.8},
    {"decode_simd", "identical_results", gate::flag, 0, 0},
    // Cached verdicts pay bookkeeping, so the off/on per-verdict ratio is
    // EXPECTED below one; the floor only bounds how much slower a cached
    // verdict may be. The win is measurement count, gated below.
    {"plan_overhead", "expected_below_one", gate::flag, 0, 0},
    {"plan_overhead", "ns_per_verdict_ratio", gate::floor, 0.2, 0.2},
    // Plan index memo store+find on No.6 pool-shaped founder pairs vs as
    // many random pairs: ~1.0 when the pair hash folds high bits into the
    // slot bits, ~5 when pool keys collapse onto a few home slots.
    {"plan_index", "shaped_vs_random", gate::ceiling, 2.0, 2.0},
    // Representative partition vs the pivot-scan loop: smallest saving
    // across 8/16/32 banks (~0.6 recorded).
    {"partition_representatives", "ok", gate::flag, 0, 0},
    {"partition_representatives", "min_reduction", gate::floor, 0.25, 0.25},
    // Designed bit-probe engine, coarse+fine measurements per machine
    // size. Fixed-count voting costs ~3x these.
    {"bit_probe", "ok", gate::flag, 0, 0},
    {"bit_probe", "designed_8", gate::ceiling, 506, 506},
    {"bit_probe", "designed_16", gate::ceiling, 518, 518},
    {"bit_probe", "designed_32", gate::ceiling, 436, 436},
    // Measurement-reuse scheduler over a whole pipeline run: it must cut
    // the measurement count (cache-off / cache-on, ~4.3x) and never lose
    // wall time doing so.
    {"partition_measurement_reuse", "ok_cache_on", gate::flag, 0, 0},
    {"partition_measurement_reuse", "ok_cache_off", gate::flag, 0, 0},
    {"partition_measurement_reuse", "measurement_reduction", gate::floor,
     1.01, 1.01},
    {"partition_measurement_reuse", "wall_speedup", gate::floor, 0.98, 0.98},
    // Simulated kernel allocate() wall, 16 GiB over 4 GiB at fragmentation
    // 0.6: ~4.7 when linear in the free list, ~16 when quadratic.
    {"os_allocate", "scaling_16g_vs_4g", gate::ceiling, 8, 8},
    // Fleet store on No.1 (the worst warm case): a verify hit must save
    // >=80% of a cold recovery, an evidence warm start >=50%, both with
    // the cold mapping reproduced bit-identically.
    {"fleet_warm_start", "mapping_identical", gate::flag, 0, 0},
    {"fleet_warm_start", "warm_mapping_identical", gate::flag, 0, 0},
    {"fleet_warm_start", "hits_ok", gate::flag, 0, 0},
    {"fleet_warm_start", "verify_reduction", gate::floor, 0.8, 0.8},
    {"fleet_warm_start", "warm_evidence_reduction", gate::floor, 0.5, 0.5},
};

/// Value text of `"key": ...` inside `section`'s object (section empty =
/// the top-level object). The emitted sections are flat (no nested
/// objects), so a section extends to the first closing brace after its
/// opening one — bounding the key search there keeps a missing key from
/// silently matching a later section.
std::string value_after(const std::string& doc, const std::string& section,
                        const std::string& key) {
  std::size_t at = 0;
  std::size_t close = std::string::npos;
  if (!section.empty()) {
    at = doc.find("\"" + section + "\"");
    if (at == std::string::npos) return {};
    const std::size_t open = doc.find('{', at);
    if (open == std::string::npos) return {};
    close = doc.find('}', open);
  }
  const std::size_t k = doc.find("\"" + key + "\"", at);
  if (k == std::string::npos || (close != std::string::npos && k > close)) {
    return {};
  }
  std::size_t v = doc.find(':', k);
  if (v == std::string::npos) return {};
  ++v;
  while (v < doc.size() && (doc[v] == ' ' || doc[v] == '\t')) ++v;
  std::size_t end = v;
  while (end < doc.size() && doc[end] != ',' && doc[end] != '\n' &&
         doc[end] != '}') {
    ++end;
  }
  return doc.substr(v, end - v);
}

/// Checks one row; prints the verdict and returns false on failure.
bool check(const std::string& doc, const gate_row& row, bool smoke) {
  const std::string text = value_after(doc, row.section, row.key);
  if (text.empty()) {
    std::fprintf(stderr, "guard: %s.%s missing\n", row.section, row.key);
    return false;
  }
  if (row.kind == gate::flag) {
    const bool ok = text.substr(0, 4) == "true";
    std::fprintf(ok ? stdout : stderr, "guard: %s.%s is %s%s\n", row.section,
                 row.key, text.c_str(), ok ? " ok" : ", want true");
    return ok;
  }
  const double value = std::strtod(text.c_str(), nullptr);
  const double bound = smoke ? row.smoke : row.full;
  const bool ceiling = row.kind == gate::ceiling;
  const bool ok = ceiling ? value <= bound : value >= bound;
  std::fprintf(ok ? stdout : stderr, "guard: %s.%s %.6g (%s %.6g)%s\n",
               row.section, row.key, value, ceiling ? "ceiling" : "floor",
               bound, ok ? " ok" : " FAILED");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: bench_guard BENCH_micro.json\n");
    return 2;
  }
  const std::string path = argv[1];
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "guard: cannot read %s\n", path.c_str());
    return 2;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string doc = buf.str();

  const std::string smoke_text = value_after(doc, "", "smoke");
  if (smoke_text.empty()) {
    std::fprintf(stderr, "guard: %s has no \"smoke\" field\n", path.c_str());
    return 2;
  }
  const bool smoke = smoke_text.substr(0, 4) == "true";
  std::printf("guard: %s configuration\n", smoke ? "smoke" : "full");

  int failures = 0;
  for (const gate_row& row : kGates) failures += check(doc, row, smoke) ? 0 : 1;
  if (failures > 0) {
    std::fprintf(stderr, "guard: %d check(s) failed on %s\n", failures,
                 path.c_str());
    return 1;
  }
  std::printf("guard: all checks passed on %s\n", path.c_str());
  return 0;
}
