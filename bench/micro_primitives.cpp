// Microbenchmarks (google-benchmark) for the primitives every experiment
// stands on: mapping decode/encode, GF(2) algebra, the simulated timing
// channel, Algorithm 1 selection, and the XOR-mask search inner loop.
// These measure *host* cost, bounding how long the table/figure harnesses
// take to run — the virtual-time numbers in Fig. 2 are independent.
//
// On top of the google-benchmark suite, main() runs the tracked sections
// and emits them as machine-readable BENCH_micro.json (gated by
// bench_guard, bench/guard_micro.cpp). Flags: --smoke (skip the
// google-benchmark suite, shrink the synthetic config for CI),
// --out=PATH (default BENCH_micro.json).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <random>
#include <span>
#include <string>

#include "api/mapping_service.h"
#include "core/address_selection.h"
#include "core/bit_probe.h"
#include "core/coarse_detect.h"
#include "core/dramdig.h"
#include "core/environment.h"
#include "core/fine_detect.h"
#include "core/function_detect.h"
#include "core/plan_index.h"
#include "core/probe_util.h"
#include "dram/presets.h"
#include "host_info.h"
#include "os/address_space.h"
#include "os/physical_memory.h"
#include "sysinfo/system_info.h"
#include "sim/machine.h"
#include "sim/profiles.h"
#include "util/bitops.h"
#include "util/combinatorics.h"
#include "util/gf2.h"
#include "util/json.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace {

using namespace dramdig;

void BM_MappingDecode(benchmark::State& state) {
  const auto& m = dram::machine_by_number(6).mapping;
  rng r(1);
  std::uint64_t pa = r.below(m.memory_bytes());
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.decode(pa));
    pa = (pa + 4097) & (m.memory_bytes() - 1);
  }
}
BENCHMARK(BM_MappingDecode);

void BM_MappingEncode(benchmark::State& state) {
  const auto& m = dram::machine_by_number(6).mapping;
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.encode(i % m.bank_count(), i % 1024, 0));
    ++i;
  }
}
BENCHMARK(BM_MappingEncode);

void BM_Gf2MinimalBasis(benchmark::State& state) {
  rng r(2);
  std::vector<std::uint64_t> funcs;
  for (int i = 0; i < 63; ++i) funcs.push_back(1 + r.below((1u << 22) - 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gf2::minimal_basis(funcs));
  }
}
BENCHMARK(BM_Gf2MinimalBasis);

void BM_Gf2Solve(benchmark::State& state) {
  const auto& m = dram::machine_by_number(2).mapping;
  std::uint64_t want = 0;
  const std::uint64_t support = (1ull << 22) - (1ull << 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gf2::solve(m.bank_functions(), want, support));
    want = (want + 1) % 32;
  }
}
BENCHMARK(BM_Gf2Solve);

void BM_MeasurePair(benchmark::State& state) {
  const auto spec = dram::machine_by_number(1);
  sim::machine machine(spec, 3, sim::timing_profile_for(spec));
  std::uint64_t p = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        machine.controller().measure_pair(p, p ^ (1ull << 20), 1000));
    p = (p + (1ull << 14)) & (spec.memory_bytes - 1);
  }
}
BENCHMARK(BM_MeasurePair);

void BM_MeasurePairsBatch4k(benchmark::State& state) {
  // Host throughput of the batched interface servicing 4096 pairs a call.
  const auto spec = dram::machine_by_number(1);
  sim::machine machine(spec, 3, sim::timing_profile_for(spec));
  rng r(9);
  std::vector<sim::addr_pair> pairs;
  for (int i = 0; i < 4096; ++i) {
    pairs.emplace_back(r.below(spec.memory_bytes) & ~63ull,
                       r.below(spec.memory_bytes) & ~63ull);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(machine.controller().measure_pairs(pairs, 1000));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_MeasurePairsBatch4k)->Unit(benchmark::kMillisecond);

void BM_HammerWindow(benchmark::State& state) {
  const auto spec = dram::machine_by_number(2);
  sim::machine machine(spec, 4, sim::timing_profile_for(spec));
  std::uint64_t row = 10;
  for (auto _ : state) {
    const auto a = *spec.mapping.encode(0, row - 1, 0);
    const auto b = *spec.mapping.encode(0, row + 1, 0);
    benchmark::DoNotOptimize(machine.faults().hammer_pair(a, b));
    row = 10 + (row + 4) % 20000;
  }
}
BENCHMARK(BM_HammerWindow);

void BM_AddressSelection(benchmark::State& state) {
  core::environment env(dram::machine_by_number(6), 5);
  const auto& buffer = env.space().map_buffer(env.spec().memory_bytes / 2);
  const std::vector<unsigned> bank_bits{7,  8,  9,  12, 13, 14, 15,
                                        16, 17, 18, 19, 20, 21, 22};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::select_addresses(buffer, bank_bits));
  }
}
BENCHMARK(BM_AddressSelection)->Unit(benchmark::kMillisecond);

void BM_XorMaskSweep(benchmark::State& state) {
  // The paper's Algorithm 3 inner loop: all masks over 14 bank bits against
  // one pile of 256 addresses.
  const std::vector<unsigned> bits{7,  8,  9,  12, 13, 14, 15,
                                   16, 17, 18, 19, 20, 21, 22};
  rng r(6);
  std::vector<std::uint64_t> pile;
  for (int i = 0; i < 256; ++i) pile.push_back(r.below(1ull << 23));
  for (auto _ : state) {
    std::size_t alive = 0;
    for_each_bit_combination(bits, 1, 14, [&](std::uint64_t mask) {
      const unsigned want = parity(pile[0], mask);
      for (std::size_t i = 1; i < pile.size(); ++i) {
        if (parity(pile[i], mask) != want) return true;
      }
      ++alive;
      return true;
    });
    benchmark::DoNotOptimize(alive);
  }
}
BENCHMARK(BM_XorMaskSweep)->Unit(benchmark::kMillisecond);

void BM_EndToEndDramDigNo4(benchmark::State& state) {
  // Host cost of a full pipeline run on the smallest machine.
  for (auto _ : state) {
    core::environment env(dram::machine_by_number(4),
                          static_cast<std::uint64_t>(state.iterations()));
    core::dramdig_tool tool(env);
    benchmark::DoNotOptimize(tool.run());
  }
}
BENCHMARK(BM_EndToEndDramDigNo4)->Unit(benchmark::kMillisecond);

// --------------------------------------------------------------------------
// Tracked comparisons emitted to BENCH_micro.json.

double wall_seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Synthetic config: `width` bank bits feeding log2(banks) random
/// independent functions; piles enumerate every bank-bit combination,
/// grouped by true bank — the shape partition hands to Algorithm 3, at a
/// size (16 bank bits on the default run) where a 2^B enumeration hurts.
struct synthetic_piles {
  std::vector<unsigned> bank_bits;
  gf2::matrix functions;
  std::vector<std::vector<std::uint64_t>> piles;
  unsigned bank_count = 0;
};

synthetic_piles make_synthetic(unsigned width, unsigned function_count,
                               std::uint64_t seed) {
  synthetic_piles out;
  for (unsigned i = 0; i < width; ++i) out.bank_bits.push_back(6 + i);
  const std::uint64_t support = mask_of_bits(out.bank_bits);
  rng r(seed);
  while (out.functions.size() < function_count) {
    const std::uint64_t f = scatter_bits(
        1 + r.below((std::uint64_t{1} << width) - 1), out.bank_bits);
    out.functions.push_back(f & support);
    if (gf2::rank(out.functions) != out.functions.size()) {
      out.functions.pop_back();
    }
  }
  out.bank_count = 1u << function_count;
  out.piles.resize(out.bank_count);
  for (std::uint64_t c = 0; c < (std::uint64_t{1} << width); ++c) {
    const std::uint64_t pa = scatter_bits(c, out.bank_bits);
    std::uint64_t id = 0;
    for (std::size_t i = 0; i < out.functions.size(); ++i) {
      id |= static_cast<std::uint64_t>(parity(pa, out.functions[i])) << i;
    }
    out.piles[id].push_back(pa);
  }
  return out;
}

void emit_bench_json(const std::string& path, bool smoke) {
  // 16 bank bits / 8 functions on the full run: the channel+rank+bank-group
  // shape of a large dual-channel DDR4 config. The virtual time charged
  // (one ns per row operation) is deterministic and gated by a ceiling;
  // the wall time is min-of-3, since the run is sub-millisecond.
  const unsigned width = smoke ? 14 : 16;
  const unsigned functions = smoke ? 6 : 8;
  const synthetic_piles s = make_synthetic(width, functions, 42);

  sim::virtual_clock nullspace_clock;
  core::function_outcome detected;
  double nullspace_wall_s = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    sim::virtual_clock clock;
    const auto t0 = std::chrono::steady_clock::now();
    detected =
        core::detect_functions(s.piles, s.bank_bits, s.bank_count, clock);
    nullspace_wall_s = std::min(nullspace_wall_s, wall_seconds_since(t0));
    nullspace_clock = clock;
  }
  const bool recovered = detected.success &&
                         gf2::same_span(detected.functions, s.functions);

  // Batched engine vs scalar loop, identical seeds: same simulated result,
  // host wall time compared.
  const auto spec = dram::machine_by_number(1);
  const std::size_t pair_count = smoke ? 20000 : 100000;
  rng addr(7);
  std::vector<sim::addr_pair> pairs;
  pairs.reserve(pair_count);
  for (std::size_t i = 0; i < pair_count; ++i) {
    pairs.emplace_back(addr.below(spec.memory_bytes) & ~63ull,
                       addr.below(spec.memory_bytes) & ~63ull);
  }
  // Min-of-3 passes on one persistent machine per variant: the production
  // embedding (the timing channel) reuses its controller and result
  // buffers across calls, so steady-state throughput — not first-call
  // buffer growth — is the honest comparison, and the min also absorbs
  // scheduler stalls (the ratio is CI-gated by bench_guard). Both machines
  // run the identical three passes, so their virtual clocks stay
  // comparable.
  auto t0 = std::chrono::steady_clock::now();
  double scalar_wall_s = 1e300, batch_wall_s = 1e300;
  sim::machine scalar_machine(spec, 11, sim::timing_profile_for(spec));
  for (int rep = 0; rep < 3; ++rep) {
    t0 = std::chrono::steady_clock::now();
    for (const auto& [a, b] : pairs) {
      benchmark::DoNotOptimize(
          scalar_machine.controller().measure_pair(a, b, 1000));
    }
    scalar_wall_s = std::min(scalar_wall_s, wall_seconds_since(t0));
  }
  sim::machine batch_machine(spec, 11, sim::timing_profile_for(spec));
  std::vector<sim::pair_measurement> batch_results;
  for (int rep = 0; rep < 3; ++rep) {
    t0 = std::chrono::steady_clock::now();
    batch_machine.controller().measure_pairs(pairs, 1000, batch_results);
    batch_wall_s = std::min(batch_wall_s, wall_seconds_since(t0));
    benchmark::DoNotOptimize(batch_results.data());
  }
  const std::uint64_t batch_virtual_ns = batch_machine.clock().now_ns();
  const std::uint64_t batch_accesses =
      batch_machine.controller().access_count();
  const std::uint64_t batch_measurements =
      batch_machine.controller().measurement_count();

  // Representative engine vs pivot-scan partition at 8/16/32 banks: same
  // machine, same seed, same pool — only the partition driver differs.
  // The measurement count is the paper's cost metric; `min_reduction` is
  // the smallest relative saving across the bank counts and is CI-gated
  // (bench_guard), so a regression that silently falls back to full pivot
  // scans fails the build.
  struct rep_row {
    unsigned banks = 0;
    std::string machine;
    std::uint64_t pivot_measurements = 0;
    std::uint64_t rep_measurements = 0;
    bool ok = false;
  };
  std::vector<rep_row> rep_rows;
  for (const unsigned banks : {8u, 16u, 32u}) {
    const dram::machine_spec* spec = nullptr;
    for (const dram::machine_spec& m : dram::paper_machines()) {
      if (m.mapping.bank_count() == banks) {
        spec = &m;
        break;
      }
    }
    if (spec == nullptr) continue;
    rep_row row;
    row.banks = banks;
    row.machine = spec->label();
    row.ok = true;
    // The pipeline's partition pool: a selection spanning every
    // function-feeding bit (the coarse "covered" set — shared row bits
    // included, exactly what Step 2 hands to Algorithm 2).
    std::uint64_t covered = 0;
    for (const std::uint64_t f : spec->mapping.bank_functions()) covered |= f;
    const std::vector<unsigned> bank_bits = bits_of_mask(covered);
    for (const bool representatives : {false, true}) {
      core::environment env(*spec, 900 + spec->number);
      auto& mc = env.mach().controller();
      const auto& buffer =
          env.space().map_buffer(spec->memory_bytes * 11 / 20);
      rng r(31 ^ spec->number);
      timing::channel channel(mc,
                              {.rounds_per_measurement = 1000,
                               .samples_per_latency = 3,
                               .calibration_pairs = 1200},
                              rng(7 ^ spec->number));
      channel.calibrate(core::sample_addresses(buffer, 1024, r));
      const auto selection = core::select_addresses(buffer, bank_bits);
      core::measurement_plan plan(channel);
      core::partition_config cfg{};
      cfg.use_representatives = representatives;
      const std::uint64_t before = mc.measurement_count();
      const auto outcome =
          core::partition_pool(plan, selection.pool, banks, r, cfg);
      const std::uint64_t cost = mc.measurement_count() - before;
      row.ok = row.ok && selection.found && outcome.success;
      (representatives ? row.rep_measurements : row.pivot_measurements) =
          cost;
    }
    rep_rows.push_back(std::move(row));
  }
  const auto rep_reduction = [](const rep_row& row) {
    return 1.0 - static_cast<double>(row.rep_measurements) /
                     static_cast<double>(
                         std::max<std::uint64_t>(row.pivot_measurements, 1));
  };
  double min_reduction = 1.0;
  bool rep_ok = !rep_rows.empty();
  for (const rep_row& row : rep_rows) {
    rep_ok = rep_ok && row.ok;
    min_reduction = std::min(min_reduction, rep_reduction(row));
  }

  // Designed-experiment bit-probe engine: coarse + fine on three machine
  // sizes with the machine's true bank functions (isolating the probed
  // phases from partition). The measurement count is the paper's cost
  // metric and deterministic, so bench_guard holds each size to a ceiling:
  // a regression that silently falls back to fixed-count voting (~3x the
  // measurements) fails the build.
  struct probe_row {
    unsigned banks = 0;
    std::string machine;
    std::uint64_t measurements = 0;
    bool ok = false;
  };
  std::vector<probe_row> probe_rows;
  for (const unsigned banks : {8u, 16u, 32u}) {
    const dram::machine_spec* spec = nullptr;
    for (const dram::machine_spec& m : dram::paper_machines()) {
      if (m.mapping.bank_count() == banks) {
        spec = &m;
        break;
      }
    }
    if (spec == nullptr) continue;
    probe_row row;
    row.banks = banks;
    row.machine = spec->label();
    {
      core::environment env(*spec, 1200 + spec->number);
      auto& mc = env.mach().controller();
      const auto& buffer =
          env.space().map_buffer(spec->memory_bytes * 11 / 20);
      rng r(53 ^ spec->number);
      timing::channel channel(mc,
                              {.rounds_per_measurement = 1000,
                               .samples_per_latency = 3,
                               .calibration_pairs = 1200},
                              rng(7 ^ spec->number));
      channel.calibrate(core::sample_addresses(buffer, 1024, r));
      const core::domain_knowledge knowledge =
          core::domain_knowledge::from_system_info(sysinfo::probe(*spec));
      core::measurement_plan plan(channel);
      core::bit_probe_engine engine(plan, buffer);
      const std::uint64_t before = mc.measurement_count();
      const auto coarse = core::run_coarse_detection(engine, knowledge, r);
      const auto fine = core::run_fine_detection(
          engine, knowledge, coarse, spec->mapping.bank_functions(), r);
      row.measurements = mc.measurement_count() - before;
      row.ok = fine.counts_satisfied &&
               fine.row_bits == spec->mapping.row_bits() &&
               fine.column_bits == spec->mapping.column_bits();
    }
    probe_rows.push_back(std::move(row));
  }
  bool probe_ok = !probe_rows.empty();
  for (const probe_row& row : probe_rows) probe_ok = probe_ok && row.ok;

  // Hot-path throughput: simulated measurements per second through each
  // layer of the batch-native stack — pure SoA decode, the full batched
  // measure (decode + latency model), and the plan-mediated vote path — at
  // three batch sizes. Min-of-3 on fresh machines per repetition;
  // min_mps_100k (the slower of decode/measure on the mid tier) is
  // CI-gated (bench_guard).
  struct hot_row {
    const char* suffix;
    std::size_t pairs = 0;
    double decode_mps = 0.0;
    double measure_mps = 0.0;
    double plan_mps = 0.0;
  };
  std::vector<hot_row> hot_rows{
      {"10k", 10000}, {"100k", 100000}, {"1m", 1000000}};
  // The plan arm (like plan_overhead below) draws uniformly random
  // addresses, so its keys never share low bits the way a real pool's do;
  // a pair hash that collapsed pool-shaped keys onto a few slots, ~5x
  // slower per memo call, never showed here. The plan_index section feeds
  // the index keys shaped like Algorithm 1's pool.
  {
    rng hot_addr(7);
    std::vector<sim::addr_pair> hot_pairs;
    hot_pairs.reserve(hot_rows.back().pairs);
    std::vector<sim::pair_measurement> hot_out;
    for (hot_row& row : hot_rows) {
      while (hot_pairs.size() < row.pairs) {
        hot_pairs.emplace_back(hot_addr.below(spec.memory_bytes) & ~63ull,
                               hot_addr.below(spec.memory_bytes) & ~63ull);
      }
      const std::span<const sim::addr_pair> span(hot_pairs.data(), row.pairs);
      double decode_s = 1e300, measure_s = 1e300, plan_s = 1e300;
      for (int rep = 0; rep < 3; ++rep) {
        sim::machine m(spec, 11, sim::timing_profile_for(spec));
        auto tick = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(&m.controller().decode_pairs(span));
        decode_s = std::min(decode_s, wall_seconds_since(tick));

        tick = std::chrono::steady_clock::now();
        m.controller().measure_pairs(span, 1000, hot_out);
        measure_s = std::min(measure_s, wall_seconds_since(tick));
        benchmark::DoNotOptimize(hot_out.data());

        core::environment env(spec, 77);
        const auto& buffer = env.space().map_buffer(spec.memory_bytes / 2);
        rng cal(5);
        timing::channel channel(env.mach().controller(),
                                {.rounds_per_measurement = 1000,
                                 .samples_per_latency = 3,
                                 .calibration_pairs = 1200},
                                rng(9));
        channel.calibrate(core::sample_addresses(buffer, 1024, cal));
        core::measurement_plan plan(channel);
        tick = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(
            plan.classify_pairs(span, /*verify_positives=*/false)
                .member.data());
        plan_s = std::min(plan_s, wall_seconds_since(tick));
      }
      const auto mps = [&row](double s) {
        return static_cast<double>(row.pairs) / std::max(s, 1e-12);
      };
      row.decode_mps = mps(decode_s);
      row.measure_mps = mps(measure_s);
      row.plan_mps = mps(plan_s);
    }
  }
  const double min_mps_100k =
      std::min(hot_rows[1].decode_mps, hot_rows[1].measure_mps);

  // Noise sampling: the sequential MT19937-64 gaussian (rng::gaussian, per-call
  // normal_distribution construction — the simulator's noise source before
  // counter streams) vs the counter stream's fixed-consumption inverse-CDF
  // sampler. Draws/s, min-of-3; the ratio is CI-gated by bench_guard so
  // the hot-path win cannot silently erode.
  const std::size_t noise_draws = smoke ? (1u << 20) : (1u << 22);
  double legacy_draw_s = 1e300, counter_draw_s = 1e300;
  {
    std::vector<double> sink(noise_draws);
    for (int rep = 0; rep < 3; ++rep) {
      rng legacy(42);
      auto tick = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < noise_draws; ++i) {
        sink[i] = legacy.gaussian(0.0, 9.0);
      }
      benchmark::DoNotOptimize(sink.data());
      legacy_draw_s = std::min(legacy_draw_s, wall_seconds_since(tick));

      const noise_stream counter = noise_stream::from_seed(42);
      tick = std::chrono::steady_clock::now();
      counter.fill_gaussian(/*domain=*/1, /*base_index=*/0, noise_draws, 0.0,
                            9.0, sink.data());
      benchmark::DoNotOptimize(sink.data());
      counter_draw_s = std::min(counter_draw_s, wall_seconds_since(tick));
    }
  }

  // Per-job fixed path: the two pieces every job pays around its
  // measurements, each against the library code it replaced, kept local
  // here. The engine (mersenne_twister_64) against std::mt19937_64 on
  // one seed: draws/s, min-of-3, and every word compared. The frame
  // lookup (mapping_region::pfn_at, a branch-free halving search) against
  // std::upper_bound over the same pfn_runs(), on random indices into a
  // buffer of a few hundred runs: ns per lookup, min-of-3, and every
  // answer compared. bench_guard gates both identity flags and both
  // speedups.
  const std::size_t engine_draws = smoke ? (1u << 22) : (1u << 24);
  double std_engine_s = 1e300, engine_s = 1e300;
  bool engine_identical = true;
  {
    std::mt19937_64 reference(42);
    mersenne_twister_64 engine(42);
    for (std::size_t i = 0; i < engine_draws; ++i) {
      engine_identical &= engine() == reference();
    }
    for (int rep = 0; rep < 3; ++rep) {
      std::uint64_t sum = 0;
      auto tick = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < engine_draws; ++i) sum += reference();
      benchmark::DoNotOptimize(sum);
      std_engine_s = std::min(std_engine_s, wall_seconds_since(tick));
      tick = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < engine_draws; ++i) sum += engine();
      benchmark::DoNotOptimize(sum);
      engine_s = std::min(engine_s, wall_seconds_since(tick));
    }
  }
  const std::size_t lookups = smoke ? (1u << 18) : (1u << 20);
  double upper_bound_s = 1e300, pfn_at_s = 1e300;
  bool pfn_at_identical = true;
  std::size_t lookup_runs = 0;
  {
    // No.1's buffer at the default fragmentation and buffer fraction: the
    // region a job samples its calibration pool from.
    core::environment env(dram::machine_by_number(1), 2025);
    const os::mapping_region& region =
        env.space().map_buffer(static_cast<std::uint64_t>(
            core::dramdig_config{}.buffer_fraction *
            static_cast<double>(env.spec().memory_bytes)));
    const std::vector<os::pfn_run>& runs = region.pfn_runs();
    lookup_runs = runs.size();
    const auto by_upper_bound = [&runs](std::uint64_t i) {
      const auto it = std::upper_bound(
          runs.begin(), runs.end(), i,
          [](std::uint64_t v, const os::pfn_run& run) {
            return v < run.pfn_prefix;
          });
      return (it - 1)->first_pfn + (i - (it - 1)->pfn_prefix);
    };
    rng pick(99);
    std::vector<std::uint64_t> index(lookups);
    for (std::uint64_t& i : index) i = pick.below(region.page_count());
    for (const std::uint64_t i : index) {
      pfn_at_identical &= region.pfn_at(i) == by_upper_bound(i);
    }
    for (int rep = 0; rep < 3; ++rep) {
      std::uint64_t sum = 0;
      auto tick = std::chrono::steady_clock::now();
      for (const std::uint64_t i : index) sum += by_upper_bound(i);
      benchmark::DoNotOptimize(sum);
      upper_bound_s = std::min(upper_bound_s, wall_seconds_since(tick));
      tick = std::chrono::steady_clock::now();
      for (const std::uint64_t i : index) sum += region.pfn_at(i);
      benchmark::DoNotOptimize(sum);
      pfn_at_s = std::min(pfn_at_s, wall_seconds_since(tick));
    }
  }

  // Counter-tail thread scaling: the identical batch serviced through
  // injected worker pools of 1/4/8 threads. The results are bit-identical
  // by construction (asserted in tests/sim/test_memory_controller.cpp);
  // here the walls are tracked so a multi-core host shows the shard win
  // and a single-core host proves oversubscription stays near-free
  // (bench_guard gates tail_mps_8t / tail_mps_1t).
  struct tail_row {
    unsigned threads;
    double wall_s = 1e300;
  };
  std::vector<tail_row> tail_rows{{1}, {4}, {8}};
  const std::size_t tail_pairs = smoke ? 100000 : 200000;
  {
    rng tail_addr(17);
    std::vector<sim::addr_pair> pairs_buf;
    pairs_buf.reserve(tail_pairs);
    for (std::size_t i = 0; i < tail_pairs; ++i) {
      pairs_buf.emplace_back(tail_addr.below(spec.memory_bytes) & ~63ull,
                             tail_addr.below(spec.memory_bytes) & ~63ull);
    }
    std::vector<sim::pair_measurement> tail_out;
    for (tail_row& row : tail_rows) {
      worker_pool pool(row.threads);
      for (int rep = 0; rep < 3; ++rep) {
        sim::machine m(spec, 11, sim::timing_profile_for(spec));
        m.controller().set_worker_pool(&pool);
        const auto tick = std::chrono::steady_clock::now();
        m.controller().measure_pairs(pairs_buf, 1000, tail_out);
        row.wall_s = std::min(row.wall_s, wall_seconds_since(tick));
        benchmark::DoNotOptimize(tail_out.data());
      }
    }
  }

  // SIMD decode kernel: the dispatched decode_banks against the pinned
  // portable kernel on one flat address array (the machine's own function
  // set). Equality of every output word is CI-gated alongside the
  // throughput ratio; simd_available records what the dispatcher resolved
  // on this host (false under DRAMDIG_FORCE_SCALAR_DECODE — the CI run
  // pinning the fallback).
  const std::size_t decode_addrs = smoke ? (1u << 19) : (1u << 21);
  double simd_decode_s = 1e300, scalar_decode_s = 1e300;
  bool decode_identical = false;
  {
    const auto& funcs = spec.mapping.bank_functions();
    rng da(23);
    std::vector<std::uint64_t> addrs(decode_addrs);
    for (std::uint64_t& a : addrs) a = da.below(spec.memory_bytes);
    std::vector<std::uint64_t> out_dispatch(decode_addrs);
    std::vector<std::uint64_t> out_scalar(decode_addrs);
    for (int rep = 0; rep < 3; ++rep) {
      auto tick = std::chrono::steady_clock::now();
      decode_banks(addrs.data(), addrs.size(), funcs.data(), funcs.size(),
                   out_dispatch.data());
      benchmark::DoNotOptimize(out_dispatch.data());
      simd_decode_s = std::min(simd_decode_s, wall_seconds_since(tick));

      tick = std::chrono::steady_clock::now();
      decode_banks_scalar(addrs.data(), addrs.size(), funcs.data(),
                          funcs.size(), out_scalar.data());
      benchmark::DoNotOptimize(out_scalar.data());
      scalar_decode_s = std::min(scalar_decode_s, wall_seconds_since(tick));
    }
    decode_identical = out_dispatch == out_scalar;
  }

  // Plan overhead per verdict: the same vote batch classified three times.
  // With reuse on, passes 2-3 never touch the channel — the wall time is
  // plan bookkeeping (hash lookups, root cache, witness scans); with reuse
  // off every pass re-measures. The emitted ns_per_verdict_ratio (off/on)
  // sits BELOW one by design — see the annotation where it is written; the
  // end-to-end win is CI-gated through partition_measurement_reuse below.
  // Uniformly random addresses, like the hot_path_throughput plan arm:
  // the pool-shaped keys a real partition feeds the plan are measured by
  // the plan_index section below.
  const std::size_t overhead_pair_count = smoke ? 20000 : 50000;
  double overhead_on_s = 1e300, overhead_off_s = 1e300;
  {
    rng ov_addr(13);
    std::vector<sim::addr_pair> ov_pairs;
    ov_pairs.reserve(overhead_pair_count);
    for (std::size_t i = 0; i < overhead_pair_count; ++i) {
      ov_pairs.emplace_back(ov_addr.below(spec.memory_bytes) & ~63ull,
                            ov_addr.below(spec.memory_bytes) & ~63ull);
    }
    for (int rep = 0; rep < 3; ++rep) {
      for (const bool reuse : {true, false}) {
        core::environment env(spec, 88);
        const auto& buffer = env.space().map_buffer(spec.memory_bytes / 2);
        rng cal(5);
        timing::channel channel(env.mach().controller(),
                                {.rounds_per_measurement = 1000,
                                 .samples_per_latency = 3,
                                 .calibration_pairs = 1200},
                                rng(9));
        channel.calibrate(core::sample_addresses(buffer, 1024, cal));
        core::measurement_plan plan(channel, {.reuse_verdicts = reuse});
        const auto tick = std::chrono::steady_clock::now();
        for (int pass = 0; pass < 3; ++pass) {
          benchmark::DoNotOptimize(
              plan.classify_pairs(ov_pairs, /*verify_positives=*/false)
                  .member.data());
        }
        (reuse ? overhead_on_s : overhead_off_s) = std::min(
            reuse ? overhead_on_s : overhead_off_s, wall_seconds_since(tick));
      }
    }
  }
  const std::uint64_t overhead_verdicts = 3 * overhead_pair_count;

  // Plan index on pool-shaped keys: Algorithm 1's pool is `base ^ s` for
  // every subset s of the bank+row support, so all members share their low
  // bits (No.6: base 0x4000c00, support 0x7ff380, 16,384 members). The
  // founder scan memoizes (pivot, member) for every later member; two
  // pivots give 32,765 pairs. ns per memo_store + memo_find on those pairs
  // against as many random cache-line pairs, min-of-9 on fresh indexes,
  // the arms alternating: shaped_vs_random is ~1 for a slot hash that
  // folds high bits into the slot bits and ~5 for one that masks a bare
  // product (bench_guard ceiling).
  constexpr std::uint64_t kShapeBase = 0x4000c00, kShapeSupport = 0x7ff380;
  std::vector<sim::addr_pair> shaped_pairs, random_pairs;
  {
    std::vector<std::uint64_t> shaped_pool;
    std::uint64_t sub = 0;
    do {
      shaped_pool.push_back(kShapeBase ^ sub);
      sub = (sub - kShapeSupport) & kShapeSupport;
    } while (sub != 0);
    for (std::size_t pivot = 0; pivot < 2; ++pivot) {
      for (std::size_t i = pivot + 1; i < shaped_pool.size(); ++i) {
        shaped_pairs.emplace_back(shaped_pool[pivot], shaped_pool[i]);
      }
    }
    rng shape_addr(17);
    while (random_pairs.size() < shaped_pairs.size()) {
      const std::uint64_t a = shape_addr.below(spec.memory_bytes) & ~63ull;
      const std::uint64_t b = shape_addr.below(spec.memory_bytes) & ~63ull;
      random_pairs.emplace_back(std::min(a, b), std::max(a, b));
    }
  }
  const auto memo_pass_ns = [](const std::vector<sim::addr_pair>& keys) {
    core::plan_index idx;
    const auto tick = std::chrono::steady_clock::now();
    for (const auto& [a, b] : keys) idx.memo_store(a, b, 1);
    int hits = 0;
    for (const auto& [a, b] : keys) hits += idx.memo_find(a, b);
    benchmark::DoNotOptimize(hits);
    return wall_seconds_since(tick) * 1e9 / static_cast<double>(keys.size());
  };
  double shaped_memo_ns = 1e300, random_memo_ns = 1e300;
  for (int rep = 0; rep < 9; ++rep) {
    for (const bool shaped : {rep % 2 == 0, rep % 2 != 0}) {
      double& best = shaped ? shaped_memo_ns : random_memo_ns;
      best = std::min(best, memo_pass_ns(shaped ? shaped_pairs : random_pairs));
    }
  }

  // Measurement-reuse scheduler: the same full pipeline run with the
  // verdict cache on vs off — the measurement *count* is the paper's cost
  // metric, the wall times bound the host cost. Min-of-15 on fresh
  // environments, the arms alternating which runs first: the wall ratio is
  // CI-gated (bench_guard) as the whole-pipeline proof that the plan's
  // bookkeeping costs less than the measurements it saves, and a single
  // preempted run on a busy host must not decide it.
  // Machine No.2 in both modes: its cache-on run saves >4x measurements,
  // so the wall ratio is signal, not scheduler jitter. (The full pipeline
  // costs ~15ms now that region construction is extent-based — cheap
  // enough for smoke.)
  const auto reuse_spec = dram::machine_by_number(2);
  core::dramdig_config cache_off{};
  cache_off.plan.reuse_verdicts = false;
  core::dramdig_report report_off, report_on;
  double reuse_off_wall_s = 1e300, reuse_on_wall_s = 1e300;
  for (int rep = 0; rep < 15; ++rep) {
    for (const bool reuse : {rep % 2 == 0, rep % 2 != 0}) {
      core::environment env(reuse_spec, 2000 + reuse_spec.number);
      t0 = std::chrono::steady_clock::now();
      if (reuse) {
        report_on = core::dramdig_tool(env).run();
        reuse_on_wall_s = std::min(reuse_on_wall_s, wall_seconds_since(t0));
      } else {
        report_off = core::dramdig_tool(env, cache_off).run();
        reuse_off_wall_s = std::min(reuse_off_wall_s, wall_seconds_since(t0));
      }
    }
  }

  // Simulated kernel allocator: one 0.55 x memory allocate() on a fresh
  // physical_memory at fragmentation 0.6 (the fragmented_fleet regime),
  // min-of-7 at 4 and 16 GiB. The 16/4 wall ratio is the complexity gate:
  // ~4.7 for the linear allocator, ~16 for one that erases each
  // exhausted extent from the middle of its free list.
  struct alloc_row {
    unsigned gib;
    double wall_s = 1e300;
    double construct_s = 1e300;
    std::size_t extents = 0;
  };
  alloc_row alloc_rows[] = {{4}, {16}};
  for (alloc_row& row : alloc_rows) {
    const std::uint64_t total = std::uint64_t{row.gib} << 30;
    for (int rep = 0; rep < 7; ++rep) {
      t0 = std::chrono::steady_clock::now();
      os::physical_memory pm({.total_bytes = total, .fragmentation = 0.6},
                             rng(600 + row.gib));
      row.construct_s = std::min(row.construct_s, wall_seconds_since(t0));
      t0 = std::chrono::steady_clock::now();
      const auto extents = pm.allocate(total * 11 / 20);
      row.wall_s = std::min(row.wall_s, wall_seconds_since(t0));
      row.extents = extents.size();
    }
  }

  // Fleet warm start: the same machine run four ways through the mapping
  // store — cold (empty store, full recovery), verify (exact fingerprint
  // hit, a few hundred designed probes), warm (geometry sibling, full
  // recovery warm-started from the stored v2 evidence prior: threshold,
  // bit classification, functions, bank count), and span-only warm (the
  // same sibling against a v1-era entry stripped of evidence — the
  // pre-evidence warm path, kept as the contrast run). Two acceptance
  // metrics, both gated by bench_guard: a verify hit must cost >=80% fewer
  // measurements and an evidence-carrying warm run >=50% fewer, both while
  // reproducing the stored mapping bit-identically. Machine No.1 is the fleet's
  // WORST warm case (smallest pool, so the partition stratification
  // never fires) — a floor that holds here holds fleet-wide.
  const auto fleet_spec = dram::machine_by_number(1);
  std::uint64_t fleet_cold_m = 0, fleet_verify_m = 0, fleet_warm_m = 0;
  std::uint64_t fleet_span_only_m = 0;
  bool fleet_mapping_identical = false, fleet_hits_ok = false;
  bool fleet_warm_identical = false;
  {
    store::mapping_store fleet_store;  // in-memory: the bench needs no disk
    api::service_config fleet_cfg;
    fleet_cfg.threads = 1;
    fleet_cfg.store = &fleet_store;
    const api::mapping_service fleet(fleet_cfg);
    const std::uint64_t fleet_seed = 777;
    const auto cold = fleet.run({{fleet_spec, "dramdig", {}, fleet_seed}});
    const auto verify = fleet.run({{fleet_spec, "dramdig", {}, fleet_seed}});
    dram::machine_spec sibling = fleet_spec;
    sibling.cpu_model += " (geometry sibling)";
    const auto warm = fleet.run({{sibling, "dramdig", {}, fleet_seed}});

    // Contrast run: the same sibling against the same entry with the v2
    // evidence stripped (bank_count 0 = "no claim" = exactly what a v1
    // document loads as), isolating what the evidence prior buys.
    store::mapping_store v1_store;
    for (store::store_entry e : fleet_store.entries()) {
      if (e.fingerprint.hash() == sysinfo::fingerprint(fleet_spec).hash()) {
        e.bank_count = 0;
        e.threshold_ns = 0.0;
        v1_store.put(std::move(e));
      }
    }
    api::service_config v1_cfg;
    v1_cfg.threads = 1;
    v1_cfg.store = &v1_store;
    const auto span_only =
        api::mapping_service(v1_cfg).run({{sibling, "dramdig", {}, fleet_seed}});

    fleet_cold_m = cold[0].result.measurement_count;
    fleet_verify_m = verify[0].result.measurement_count;
    fleet_warm_m = warm[0].result.measurement_count;
    fleet_span_only_m = span_only[0].result.measurement_count;
    fleet_mapping_identical =
        cold[0].result.mapping && verify[0].result.mapping &&
        cold[0].result.mapping->describe() == verify[0].result.mapping->describe();
    fleet_warm_identical =
        cold[0].result.mapping && warm[0].result.mapping &&
        cold[0].result.mapping->describe() == warm[0].result.mapping->describe();
    fleet_hits_ok = cold[0].store_hit == "cold" &&
                    verify[0].store_hit == "verify" &&
                    warm[0].store_hit == "warm" &&
                    span_only[0].store_hit == "warm" &&
                    cold[0].result.verified && verify[0].result.verified &&
                    warm[0].result.verified && span_only[0].result.verified;
  }
  const auto reduction_vs_cold = [&](std::uint64_t m) {
    return 1.0 - static_cast<double>(m) /
                     static_cast<double>(std::max<std::uint64_t>(fleet_cold_m,
                                                                 1));
  };

  json_writer w;
  w.begin_object();
  w.key("bench").value("micro_primitives");
  w.key("smoke").value(smoke);
  bench::write_host_block(w);
  w.key("function_detect_synthetic").begin_object();
  w.key("bank_bit_count").value(std::uint64_t{width});
  w.key("function_count").value(std::uint64_t{functions});
  w.key("bank_count").value(std::uint64_t{s.bank_count});
  w.key("pile_count").value(s.piles.size());
  w.key("nullspace_wall_s").value(nullspace_wall_s);
  w.key("nullspace_virtual_ns").value(nullspace_clock.now_ns());
  w.key("recovered_functions").value(recovered);
  w.end_object();
  w.key("batched_measurement").begin_object();
  w.key("pair_count").value(pair_count);
  w.key("scalar_wall_s").value(scalar_wall_s);
  w.key("batch_wall_s").value(batch_wall_s);
  w.key("wall_speedup").value(scalar_wall_s / std::max(batch_wall_s, 1e-9));
  w.key("virtual_ns").value(batch_virtual_ns);
  w.key("access_count").value(batch_accesses);
  w.key("measurement_count").value(batch_measurements);
  w.end_object();
  w.key("hot_path_throughput").begin_object();
  for (const hot_row& row : hot_rows) {
    const std::string suffix = row.suffix;
    w.key("pairs_" + suffix).value(row.pairs);
    w.key("decode_mps_" + suffix).value(row.decode_mps);
    w.key("measure_mps_" + suffix).value(row.measure_mps);
    w.key("plan_mps_" + suffix).value(row.plan_mps);
  }
  w.key("min_mps_100k").value(min_mps_100k);
  w.end_object();
  w.key("noise_sampling").begin_object();
  w.key("draws").value(std::uint64_t{noise_draws});
  w.key("legacy_draws_per_s")
      .value(static_cast<double>(noise_draws) / std::max(legacy_draw_s, 1e-12));
  w.key("counter_draws_per_s")
      .value(static_cast<double>(noise_draws) /
             std::max(counter_draw_s, 1e-12));
  w.key("speedup").value(legacy_draw_s / std::max(counter_draw_s, 1e-9));
  w.end_object();
  w.key("fixed_path").begin_object();
  w.key("engine_draws").value(std::uint64_t{engine_draws});
  w.key("std_engine_draws_per_s")
      .value(static_cast<double>(engine_draws) / std::max(std_engine_s, 1e-12));
  w.key("engine_draws_per_s")
      .value(static_cast<double>(engine_draws) / std::max(engine_s, 1e-12));
  w.key("engine_speedup").value(std_engine_s / std::max(engine_s, 1e-12));
  w.key("engine_identical").value(engine_identical);
  w.key("lookups").value(std::uint64_t{lookups});
  w.key("lookup_runs").value(lookup_runs);
  w.key("upper_bound_ns")
      .value(upper_bound_s * 1e9 / static_cast<double>(lookups));
  w.key("pfn_at_ns").value(pfn_at_s * 1e9 / static_cast<double>(lookups));
  w.key("pfn_at_speedup").value(upper_bound_s / std::max(pfn_at_s, 1e-12));
  w.key("pfn_at_identical").value(pfn_at_identical);
  w.end_object();
  w.key("counter_tail").begin_object();
  w.key("pairs").value(std::uint64_t{tail_pairs});
  for (const tail_row& row : tail_rows) {
    const std::string suffix = std::to_string(row.threads) + "t";
    w.key("tail_mps_" + suffix)
        .value(static_cast<double>(tail_pairs) / std::max(row.wall_s, 1e-12));
  }
  w.key("scaling_8t_vs_1t").value(tail_rows[0].wall_s /
                                  std::max(tail_rows[2].wall_s, 1e-12));
  w.end_object();
  w.key("decode_simd").begin_object();
  w.key("addresses").value(std::uint64_t{decode_addrs});
  w.key("simd_available").value(decode_banks_uses_simd());
  w.key("dispatched_mps")
      .value(static_cast<double>(decode_addrs) /
             std::max(simd_decode_s, 1e-12));
  w.key("scalar_mps").value(static_cast<double>(decode_addrs) /
                            std::max(scalar_decode_s, 1e-12));
  w.key("speedup").value(scalar_decode_s / std::max(simd_decode_s, 1e-9));
  w.key("identical_results").value(decode_identical);
  w.end_object();
  w.key("plan_overhead").begin_object();
  w.key("verdicts").value(overhead_verdicts);
  w.key("wall_cache_on_s").value(overhead_on_s);
  w.key("wall_cache_off_s").value(overhead_off_s);
  w.key("ns_per_verdict_on")
      .value(overhead_on_s * 1e9 / static_cast<double>(overhead_verdicts));
  w.key("ns_per_verdict_off")
      .value(overhead_off_s * 1e9 / static_cast<double>(overhead_verdicts));
  // off/on per-verdict wall ratio. Below one BY DESIGN: a cached verdict
  // pays hash lookups and witness scans where a raw re-measure is a tight
  // simulated-latency loop — the cache wins on *measurement count*, which
  // partition_measurement_reuse gates, not on per-verdict nanoseconds.
  // The key is named (and flagged) so nobody "fixes" the <1 value.
  w.key("ns_per_verdict_ratio")
      .value(overhead_off_s / std::max(overhead_on_s, 1e-9));
  w.key("expected_below_one").value(true);
  w.end_object();
  w.key("plan_index").begin_object();
  w.key("pairs").value(shaped_pairs.size());
  w.key("shaped_ns_per_store_find").value(shaped_memo_ns);
  w.key("random_ns_per_store_find").value(random_memo_ns);
  w.key("shaped_vs_random")
      .value(shaped_memo_ns / std::max(random_memo_ns, 1e-9));
  w.end_object();
  w.key("partition_representatives").begin_object();
  for (const rep_row& row : rep_rows) {
    const std::string suffix = std::to_string(row.banks);
    w.key("machine_" + suffix).value(row.machine);
    w.key("pivot_" + suffix).value(row.pivot_measurements);
    w.key("representative_" + suffix).value(row.rep_measurements);
    w.key("ok_" + suffix).value(row.ok);
  }
  w.key("ok").value(rep_ok);
  w.key("min_reduction").value(min_reduction);
  w.end_object();
  w.key("bit_probe").begin_object();
  for (const probe_row& row : probe_rows) {
    const std::string suffix = std::to_string(row.banks);
    w.key("machine_" + suffix).value(row.machine);
    w.key("designed_" + suffix).value(row.measurements);
    w.key("ok_" + suffix).value(row.ok);
  }
  w.key("ok").value(probe_ok);
  w.end_object();
  w.key("partition_measurement_reuse").begin_object();
  w.key("machine").value(reuse_spec.label());
  w.key("ok_cache_off").value(report_off.success);
  w.key("ok_cache_on").value(report_on.success);
  w.key("measurements_cache_off").value(report_off.total_measurements);
  w.key("measurements_cache_on").value(report_on.total_measurements);
  w.key("measurements_saved").value(report_on.measurements_saved);
  w.key("measurement_reduction")
      .value(static_cast<double>(report_off.total_measurements) /
             static_cast<double>(
                 std::max<std::uint64_t>(report_on.total_measurements, 1)));
  w.key("wall_cache_off_s").value(reuse_off_wall_s);
  w.key("wall_cache_on_s").value(reuse_on_wall_s);
  w.key("wall_speedup")
      .value(reuse_off_wall_s / std::max(reuse_on_wall_s, 1e-9));
  w.end_object();
  w.key("os_allocate").begin_object();
  w.key("fragmentation").value(0.6);
  for (const alloc_row& row : alloc_rows) {
    const std::string suffix = std::to_string(row.gib) + "g";
    w.key("wall_ms_" + suffix).value(row.wall_s * 1e3);
    w.key("construct_ms_" + suffix).value(row.construct_s * 1e3);
    w.key("extents_" + suffix).value(row.extents);
  }
  w.key("scaling_16g_vs_4g")
      .value(alloc_rows[1].wall_s / std::max(alloc_rows[0].wall_s, 1e-12));
  w.end_object();
  w.key("fleet_warm_start").begin_object();
  w.key("machine").value(fleet_spec.label());
  w.key("cold_measurements").value(fleet_cold_m);
  w.key("verify_measurements").value(fleet_verify_m);
  w.key("warm_measurements").value(fleet_warm_m);
  w.key("verify_reduction").value(reduction_vs_cold(fleet_verify_m));
  w.key("warm_reduction").value(reduction_vs_cold(fleet_warm_m));
  // The evidence-carrying warm path vs the v1-era span-only warm start
  // (same sibling, same seed, entry stripped of its evidence block).
  w.key("warm_evidence_measurements").value(fleet_warm_m);
  w.key("warm_evidence_reduction").value(reduction_vs_cold(fleet_warm_m));
  w.key("warm_span_only_measurements").value(fleet_span_only_m);
  w.key("warm_mapping_identical").value(fleet_warm_identical);
  w.key("mapping_identical").value(fleet_mapping_identical);
  w.key("hits_ok").value(fleet_hits_ok);
  w.end_object();
  w.end_object();
  write_file(path, w.str());

  std::printf("\n== tracked comparisons (written to %s) ==\n", path.c_str());
  std::printf("function detect, %u bank bits: nullspace %.4fs, %llu virtual "
              "ns, recovered functions: %s\n",
              width, nullspace_wall_s,
              static_cast<unsigned long long>(nullspace_clock.now_ns()),
              recovered ? "yes" : "NO");
  std::printf("batched engine, %zu pairs: scalar %.3fs, batch %.3fs (%.1fx)\n",
              pair_count, scalar_wall_s, batch_wall_s,
              scalar_wall_s / std::max(batch_wall_s, 1e-9));
  for (const hot_row& row : hot_rows) {
    std::printf("hot path at %zu pairs: decode %.1fM/s, measure %.1fM/s, "
                "plan %.1fM/s\n",
                row.pairs, row.decode_mps / 1e6, row.measure_mps / 1e6,
                row.plan_mps / 1e6);
  }
  std::printf("plan overhead, %llu verdicts x3 passes: cache on %.0f ns/verdict,"
              " off %.0f ns/verdict (%.1fx)\n",
              static_cast<unsigned long long>(overhead_verdicts),
              overhead_on_s * 1e9 / static_cast<double>(overhead_verdicts),
              overhead_off_s * 1e9 / static_cast<double>(overhead_verdicts),
              overhead_off_s / std::max(overhead_on_s, 1e-9));
  std::printf("plan index, %zu pairs: pool-shaped %.1f ns, random %.1f ns "
              "per memo store+find (%.2fx)\n",
              shaped_pairs.size(), shaped_memo_ns, random_memo_ns,
              shaped_memo_ns / std::max(random_memo_ns, 1e-9));
  for (const rep_row& row : rep_rows) {
    std::printf("partition at %u banks (%s): pivot-scan %llu, representative "
                "%llu measurements (-%.0f%%)%s\n",
                row.banks, row.machine.c_str(),
                static_cast<unsigned long long>(row.pivot_measurements),
                static_cast<unsigned long long>(row.rep_measurements),
                100.0 * rep_reduction(row), row.ok ? "" : " [FAILED]");
  }
  for (const probe_row& row : probe_rows) {
    std::printf("coarse+fine at %u banks (%s): designed probes %llu "
                "measurements%s\n",
                row.banks, row.machine.c_str(),
                static_cast<unsigned long long>(row.measurements),
                row.ok ? "" : " [FAILED]");
  }
  std::printf("measurement reuse on %s: %llu measurements without cache, "
              "%llu with (%llu saved)\n",
              reuse_spec.label().c_str(),
              static_cast<unsigned long long>(report_off.total_measurements),
              static_cast<unsigned long long>(report_on.total_measurements),
              static_cast<unsigned long long>(report_on.measurements_saved));
  std::printf("noise sampling: legacy %.1fM draws/s, counter %.1fM draws/s "
              "(%.2fx)\n",
              static_cast<double>(noise_draws) / legacy_draw_s / 1e6,
              static_cast<double>(noise_draws) / counter_draw_s / 1e6,
              legacy_draw_s / std::max(counter_draw_s, 1e-9));
  std::printf("fixed path: engine %.1fM draws/s vs std %.1fM (%.2fx, "
              "identical %s); pfn_at %.1f ns vs upper_bound %.1f ns over %zu "
              "runs (%.2fx, identical %s)\n",
              static_cast<double>(engine_draws) / engine_s / 1e6,
              static_cast<double>(engine_draws) / std_engine_s / 1e6,
              std_engine_s / std::max(engine_s, 1e-12),
              engine_identical ? "yes" : "NO",
              pfn_at_s * 1e9 / static_cast<double>(lookups),
              upper_bound_s * 1e9 / static_cast<double>(lookups), lookup_runs,
              upper_bound_s / std::max(pfn_at_s, 1e-12),
              pfn_at_identical ? "yes" : "NO");
  std::printf("counter tail, %zu pairs: 1t %.1fM/s, 4t %.1fM/s, 8t %.1fM/s\n",
              tail_pairs,
              static_cast<double>(tail_pairs) / tail_rows[0].wall_s / 1e6,
              static_cast<double>(tail_pairs) / tail_rows[1].wall_s / 1e6,
              static_cast<double>(tail_pairs) / tail_rows[2].wall_s / 1e6);
  std::printf("decode kernel (%s): dispatched %.1fM addr/s, scalar %.1fM "
              "addr/s (%.2fx), identical %s\n",
              decode_banks_uses_simd() ? "AVX2" : "scalar fallback",
              static_cast<double>(decode_addrs) / simd_decode_s / 1e6,
              static_cast<double>(decode_addrs) / scalar_decode_s / 1e6,
              scalar_decode_s / std::max(simd_decode_s, 1e-9),
              decode_identical ? "yes" : "NO");
  std::printf("allocate at fragmentation 0.6: 4 GiB %.2f ms (%zu extents), "
              "16 GiB %.2f ms (%zu extents), %.1fx\n",
              alloc_rows[0].wall_s * 1e3, alloc_rows[0].extents,
              alloc_rows[1].wall_s * 1e3, alloc_rows[1].extents,
              alloc_rows[1].wall_s / std::max(alloc_rows[0].wall_s, 1e-12));
  std::printf("fleet warm start on %s: cold %llu, verify %llu (-%.0f%%), "
              "warm %llu (-%.0f%%, span-only %llu) measurements, mapping "
              "identical: %s\n",
              fleet_spec.label().c_str(),
              static_cast<unsigned long long>(fleet_cold_m),
              static_cast<unsigned long long>(fleet_verify_m),
              100.0 * reduction_vs_cold(fleet_verify_m),
              static_cast<unsigned long long>(fleet_warm_m),
              100.0 * reduction_vs_cold(fleet_warm_m),
              static_cast<unsigned long long>(fleet_span_only_m),
              fleet_mapping_identical && fleet_warm_identical &&
                      fleet_hits_ok
                  ? "yes"
                  : "NO");
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out = "BENCH_micro.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strncmp(argv[i], "--out=", 6) == 0) out = argv[i] + 6;
  }
  benchmark::Initialize(&argc, argv);
  if (!smoke) benchmark::RunSpecifiedBenchmarks();
  emit_bench_json(out, smoke);
  return 0;
}
