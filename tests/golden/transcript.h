// Golden transcripts: deterministic JSON records of what the pipeline, the
// baselines, the measurement plan, the raw controller stream and the
// simulated kernel allocator produce for fixed (preset, seed) inputs.
//
// Every count, virtual time and mapping in this project is a pure function
// of (machine spec, seed, options), so a transcript recorded once pins the
// single live implementation of each algorithm against drift — something
// an A==B check between two live paths cannot do when both drift together.
// The recorder (tests/golden/recorder/record_golden.cpp) writes the
// tests/golden/*.json files from these builders; test_golden.cpp rebuilds
// each document and compares it field by field against the recorded one.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "api/tool.h"
#include "core/address_selection.h"
#include "core/measurement_plan.h"
#include "core/partition.h"
#include "core_test_util.h"
#include "dram/presets.h"
#include "os/physical_memory.h"
#include "sim/machine.h"
#include "sim/profiles.h"
#include "util/bitops.h"
#include "util/gf2.h"
#include "util/json.h"
#include "util/rng.h"

namespace dramdig::golden {

/// Seeds every per-preset transcript is recorded at.
inline constexpr std::uint64_t kSeeds[] = {7, 42};

/// FNV-1a over the eight bytes of `word`, folded into `h`.
inline std::uint64_t fnv1a(std::uint64_t h, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

inline std::uint64_t bits_of(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

/// 64-bit values as hex strings: JSON numbers are read back as doubles by
/// the comparison, which would drop the low bits of a digest or mask.
inline std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

inline void write_bits(json_writer& w, const std::vector<unsigned>& bits) {
  w.begin_array();
  for (const unsigned b : bits) w.value(std::uint64_t{b});
  w.end_array();
}

/// A verdict vector as a '0'/'1' string (compact and diffable).
inline std::string flags(const std::vector<char>& v) {
  std::string s;
  s.reserve(v.size());
  for (const char c : v) s.push_back(c != 0 ? '1' : '0');
  return s;
}

inline void write_plan_stats(json_writer& w, const core::plan_stats& s) {
  w.begin_object();
  w.key("measurements_issued").value(s.measurements_issued);
  w.key("measurements_saved").value(s.measurements_saved);
  w.key("classes_merged").value(s.classes_merged);
  w.key("negatives_recorded").value(s.negatives_recorded);
  w.key("prescreen_rejections").value(s.prescreen_rejections);
  w.key("witnesses_evicted").value(s.witnesses_evicted);
  w.end_object();
}

/// One full tool run through the registry, on a fresh environment.
inline void write_tool_run(json_writer& w, const std::string& tool,
                           const dram::machine_spec& spec, std::uint64_t seed,
                           const api::tool_options& options = {}) {
  core::environment env(spec, seed);
  const api::tool_result r = api::make_tool(tool, options)->run(env);
  w.begin_object();
  w.key("tool").value(tool);
  w.key("success").value(r.success);
  w.key("verified").value(r.verified);
  w.key("outcome").value(r.outcome);
  w.key("failure_reason").value(r.failure_reason);
  w.key("mapping");
  if (r.mapping) {
    w.begin_object();
    w.key("functions").begin_array();
    for (const std::uint64_t f : r.mapping->bank_functions()) w.value(hex(f));
    w.end_array();
    w.key("row_bits");
    write_bits(w, r.mapping->row_bits());
    w.key("column_bits");
    write_bits(w, r.mapping->column_bits());
    w.end_object();
  } else {
    w.null_value();
  }
  w.key("virtual_ns").value(env.mach().clock().now_ns());
  w.key("measurement_count").value(r.measurement_count);
  w.key("measurements_saved").value(r.measurements_saved);
  w.key("access_count").value(r.access_count);
  w.key("pool_size").value(r.pool_size);
  w.key("assumed_bank_count").value(std::uint64_t{r.assumed_bank_count});
  w.key("threshold_ns_bits").value(hex(bits_of(r.threshold_ns)));
  w.key("phases").begin_array();
  for (const api::tool_phase& p : r.phases) {
    w.begin_object();
    w.key("name").value(p.name);
    w.key("virtual_ns").value(
        static_cast<std::uint64_t>(std::llround(p.seconds * 1e9)));
    w.key("measurements").value(p.measurements);
    w.key("pairs_used").value(p.pairs_used);
    w.end_object();
  }
  w.end_array();
  const core::probe_stats& pr = r.probe_rounds;
  w.key("probe_rounds").begin_object();
  w.key("experiments").value(pr.experiments);
  w.key("rounds").value(pr.rounds);
  w.key("votes_cast").value(pr.votes_cast);
  w.key("votes_saved").value(pr.votes_saved);
  w.key("shared_base_votes").value(pr.shared_base_votes);
  w.key("reused_votes").value(pr.reused_votes);
  w.key("priors_confirmed").value(pr.priors_confirmed);
  w.key("priors_refuted").value(pr.priors_refuted);
  w.end_object();
  w.end_object();
}

/// Algorithm 2 alone through a fresh measurement plan over the preset's
/// function-feeding bits: the plan's counters on a realistic workload.
inline void write_partition_run(json_writer& w, const dram::machine_spec& spec,
                                std::uint64_t seed) {
  core::environment env(spec, seed);
  auto& mc = env.mach().controller();
  const auto& buffer = env.space().map_buffer(spec.memory_bytes * 11 / 20);
  rng r(seed ^ 0x9a27);
  timing::channel channel(mc,
                          {.rounds_per_measurement = 1000,
                           .samples_per_latency = 3,
                           .calibration_pairs = 1200},
                          rng(seed ^ 0xca1));
  channel.calibrate(core::sample_addresses(buffer, 1024, r));
  std::uint64_t covered = 0;
  for (const std::uint64_t f : spec.mapping.bank_functions()) covered |= f;
  const auto selection = core::select_addresses(buffer, bits_of_mask(covered));
  core::measurement_plan plan(channel);
  const std::uint64_t before = mc.measurement_count();
  const auto outcome = core::partition_pool(plan, selection.pool,
                                            spec.mapping.bank_count(), r);
  w.begin_object();
  w.key("pool").value(selection.pool.size());
  w.key("success").value(outcome.success);
  w.key("piles").value(outcome.piles.size());
  w.key("partitioned").value(outcome.partitioned);
  w.key("reused_verdicts").value(outcome.reused_verdicts);
  w.key("representative_votes").value(outcome.representative_votes);
  w.key("founder_scans").value(std::uint64_t{outcome.founder_scans});
  w.key("measurements").value(mc.measurement_count() - before);
  w.key("class_count").value(plan.class_count());
  w.key("plan_stats");
  write_plan_stats(w, plan.stats());
  w.end_object();
}

/// The raw controller stream: a 4096-pair measure_pairs batch, a scalar
/// measure_pair run and single accesses, digested by latency bit pattern.
inline void write_stream(json_writer& w, const dram::machine_spec& spec,
                         std::uint64_t seed) {
  sim::machine m(spec, seed, sim::timing_profile_for(spec));
  auto& mc = m.controller();
  rng addr(seed ^ 0x5eed);
  std::vector<sim::addr_pair> pairs;
  for (int i = 0; i < 4096; ++i) {
    pairs.emplace_back(addr.below(spec.memory_bytes) & ~63ull,
                       addr.below(spec.memory_bytes) & ~63ull);
  }
  const auto batch = mc.measure_pairs(pairs, 1000);
  std::uint64_t batch_digest = kFnvBasis;
  std::uint64_t contaminated = 0;
  for (const sim::pair_measurement& pm : batch) {
    batch_digest = fnv1a(batch_digest, bits_of(pm.mean_access_ns));
    contaminated += pm.contaminated;
  }
  std::uint64_t scalar_digest = kFnvBasis;
  for (int i = 0; i < 256; ++i) {
    const auto pm = mc.measure_pair(pairs[i].first, pairs[i].second, 37);
    scalar_digest = fnv1a(scalar_digest, bits_of(pm.mean_access_ns));
    scalar_digest = fnv1a(scalar_digest, pm.contaminated ? 1 : 0);
    scalar_digest = fnv1a(scalar_digest, bits_of(mc.access(pairs[i].second)));
  }
  w.begin_object();
  w.key("batch_latency_digest").value(hex(batch_digest));
  w.key("batch_contaminated").value(contaminated);
  w.key("scalar_digest").value(hex(scalar_digest));
  w.key("virtual_ns").value(m.clock().now_ns());
  w.key("access_count").value(mc.access_count());
  w.key("measurement_count").value(mc.measurement_count());
  w.end_object();
}

/// Per-preset document: DRAMDig through make_tool, Algorithm 2 through a
/// plan, and the raw stream, at every seed in kSeeds.
inline std::string dramdig_document(int machine) {
  const dram::machine_spec& spec = dram::machine_by_number(machine);
  json_writer w;
  w.begin_object();
  w.key("machine").value(spec.label());
  w.key("runs").begin_array();
  for (const std::uint64_t seed : kSeeds) {
    w.begin_object();
    w.key("seed").value(seed);
    w.key("dramdig");
    write_tool_run(w, "dramdig", spec, seed);
    w.key("partition");
    write_partition_run(w, spec, seed);
    w.key("stream");
    write_stream(w, spec, seed);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

/// The two baselines, each on one small preset.
inline std::string baselines_document() {
  json_writer w;
  w.begin_object();
  w.key("drama");
  write_tool_run(w, "drama", dram::machine_by_number(4), 7);
  w.key("xiao");
  write_tool_run(w, "xiao", dram::machine_by_number(4), 7);
  w.end_object();
  return w.str();
}

/// The fleet warm path: DRAMDig on No.9 warm-started from its geometry
/// sibling No.6, the way mapping_service fills dramdig_config::warm from a
/// stored entry. The mapping comes from No.6's preset; pool size and
/// threshold from a cold No.6 run at the same seed. Three priors per seed:
/// full evidence, span-only (a v1-era entry), and poisoned (one mask with
/// one bit flipped inside the pool's support, so the span hint, the pool
/// strata and the bit priors are all refuted mid-run).
inline std::string dramdig_warm_document() {
  const dram::machine_spec& sibling = dram::machine_by_number(6);
  const dram::machine_spec& target = dram::machine_by_number(9);
  json_writer w;
  w.begin_object();
  w.key("machine").value(target.label());
  w.key("sibling").value(sibling.label());
  w.key("runs").begin_array();
  for (const std::uint64_t seed : kSeeds) {
    core::environment sibling_env(sibling, seed);
    const api::tool_result cold = api::make_tool("dramdig")->run(sibling_env);
    core::dramdig_config::warm_hints full;
    full.bank_functions = sibling.mapping.bank_functions();
    full.row_bits = sibling.mapping.row_bits();
    full.column_bits = sibling.mapping.column_bits();
    full.bank_count = sibling.mapping.bank_count();
    full.threshold_ns = cold.threshold_ns;
    full.expected_pool = static_cast<std::size_t>(cold.pool_size);
    full.function_span = gf2::row_echelon(full.bank_functions);
    core::dramdig_config::warm_hints span_only;
    span_only.function_span = full.function_span;
    span_only.expected_pool = full.expected_pool;
    core::dramdig_config::warm_hints poisoned = full;
    poisoned.bank_functions.back() ^= std::uint64_t{1} << 19;
    poisoned.function_span = gf2::row_echelon(poisoned.bank_functions);
    const std::pair<const char*, const core::dramdig_config::warm_hints*>
        priors[] = {{"full", &full}, {"span_only", &span_only},
                    {"poisoned", &poisoned}};
    for (const auto& [name, hints] : priors) {
      core::dramdig_config cfg;
      cfg.warm = *hints;
      api::tool_options options;
      options.with_dramdig(std::move(cfg));
      w.begin_object();
      w.key("seed").value(seed);
      w.key("prior").value(name);
      w.key("dramdig");
      write_tool_run(w, "dramdig", target, seed, options);
      w.end_object();
    }
  }
  w.end_array();
  w.end_object();
  return w.str();
}

inline core::scan_options plain_scan() {
  core::scan_options s{};
  s.verify_positives = true;
  s.prescreen_sample = 0;
  return s;
}

inline std::vector<std::uint64_t> plan_pool(core::testing::pipeline_fixture& f) {
  return core::select_addresses(f.buffer, {6, 14, 15, 16, 17, 18, 19}).pool;
}

/// Relation codes of every adjacent pool pair (0 unknown, 1 same bank,
/// 2 cross pile) — relation() never measures.
inline std::string relation_codes(core::measurement_plan& plan,
                                  const std::vector<std::uint64_t>& pool,
                                  std::size_t span) {
  std::string s;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    for (std::size_t j = i + 1; j < pool.size() && j <= i + span; ++j) {
      s.push_back(static_cast<char>(
          '0' + static_cast<int>(plan.relation(pool[i], pool[j]))));
    }
  }
  return s;
}

/// Measurement-plan mixed workload on machine No.1: pivot scans, random
/// representative votes, designed probes, a strict batch with in-batch
/// duplicates, a relation sweep, then reset and a rescan — one state
/// snapshot per stage.
inline std::string plan_mixed_document() {
  core::testing::pipeline_fixture f(1);
  const auto pool = plan_pool(f);
  core::measurement_plan plan(f.channel);
  json_writer w;
  w.begin_object();
  w.key("stages").begin_array();
  const auto snapshot = [&](const char* stage) {
    w.key("stage").value(stage);
    w.key("stats");
    write_plan_stats(w, plan.stats());
    w.key("class_count").value(plan.class_count());
    w.key("controller_measurements")
        .value(f.env.mach().controller().measurement_count());
    w.end_object();
  };

  w.begin_object();
  w.key("scans").begin_array();
  for (std::size_t p = 0; p < 3; ++p) {
    std::vector<std::uint64_t> partners;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (i != p) partners.push_back(pool[i]);
    }
    const auto got = plan.classify_partners(pool[p], partners, plain_scan());
    w.begin_object();
    w.key("member").value(flags(got.member));
    w.key("reused").value(got.reused);
    w.end_object();
  }
  w.end_array();
  snapshot("pivot scans");

  rng votes_rng(424242);
  std::vector<sim::addr_pair> votes;
  while (votes.size() < 200) {
    const std::uint64_t a = pool[votes_rng.below(pool.size())];
    const std::uint64_t b = pool[votes_rng.below(pool.size())];
    if (a != b) votes.emplace_back(a, b);
  }
  const auto v = plan.classify_pairs(votes, /*verify_positives=*/true);
  w.begin_object();
  w.key("member").value(flags(v.member));
  w.key("reused").value(v.reused);
  snapshot("classify_pairs");

  std::vector<sim::addr_pair> probes;
  for (std::size_t i = 0; i + 1 < pool.size() && probes.size() < 64; i += 2) {
    probes.emplace_back(pool[i], pool[i + 1]);
  }
  const auto pr = plan.probe_pairs(probes);
  w.begin_object();
  w.key("sbdr").value(flags(pr.sbdr));
  w.key("reused").value(pr.reused);
  snapshot("probe_pairs");

  std::vector<sim::addr_pair> strict(votes.begin(), votes.begin() + 32);
  strict.push_back(strict.front());
  strict.emplace_back(strict.front().second, strict.front().first);
  const std::vector<char> verdicts = plan.is_sbdr_strict_batch(strict);
  w.begin_object();
  w.key("strict").value(flags(verdicts));
  snapshot("strict batch");

  std::vector<char> strict_positive;
  for (std::size_t i = 0; i + 1 < pool.size(); ++i) {
    strict_positive.push_back(plan.known_strict_positive(pool[i], pool[i + 1]));
  }
  w.begin_object();
  w.key("relations").value(relation_codes(plan, pool, 1));
  w.key("known_strict_positive").value(flags(strict_positive));
  snapshot("relation sweep");

  plan.reset();
  const std::vector<std::uint64_t> partners(pool.begin() + 1, pool.end());
  const auto rescan = plan.classify_partners(pool.front(), partners,
                                             plain_scan());
  w.begin_object();
  w.key("member").value(flags(rescan.member));
  w.key("reused").value(rescan.reused);
  snapshot("reset and rescan");
  w.end_array();
  w.end_object();
  return w.str();
}

/// Measurement-plan LRU workload on machine No.1: max_witnesses = 2 forces
/// constant witness eviction across six random pivot scans.
inline std::string plan_lru_document() {
  core::testing::pipeline_fixture f(1);
  const auto pool = plan_pool(f);
  core::measurement_plan plan(f.channel, {.max_witnesses = 2});
  json_writer w;
  w.begin_object();
  w.key("rounds").begin_array();
  rng pivots(7);
  for (unsigned round = 0; round < 6; ++round) {
    const std::size_t p = pivots.below(pool.size());
    std::vector<std::uint64_t> partners;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (i != p) partners.push_back(pool[i]);
    }
    const auto got = plan.classify_partners(pool[p], partners, plain_scan());
    w.begin_object();
    w.key("pivot").value(p);
    w.key("member").value(flags(got.member));
    w.key("reused").value(got.reused);
    w.end_object();
  }
  w.end_array();
  w.key("stats");
  write_plan_stats(w, plan.stats());
  w.key("controller_measurements")
      .value(f.env.mach().controller().measurement_count());
  w.key("relations").value(relation_codes(plan, pool, 7));
  w.end_object();
  return w.str();
}

/// FNV digest of an extent list: its length, then every (first_pfn,
/// page_count) in the order handed out.
inline std::uint64_t extents_digest(const std::vector<os::extent>& extents) {
  std::uint64_t h = fnv1a(kFnvBasis, extents.size());
  for (const os::extent& e : extents) {
    h = fnv1a(h, e.first_pfn);
    h = fnv1a(h, e.page_count);
  }
  return h;
}

/// The simulated kernel allocator over sizes x fragmentation levels x
/// kSeeds: a 0.55 x memory buffer, a free-then-reallocate round, an
/// over-size request that must throw std::bad_alloc and roll back, three
/// huge pages, and a small allocation from the restored free list. Pins
/// every extent, rng draw and free-list state the allocator exposes.
inline std::string os_allocate_document() {
  json_writer w;
  w.begin_object();
  w.key("cases").begin_array();
  for (const std::uint64_t gib : {4, 8, 16}) {
    for (const double fragmentation : {0.0, 0.1, 0.3, 0.6, 0.9, 1.0}) {
      for (const std::uint64_t seed : kSeeds) {
        const std::uint64_t total = gib << 30;
        os::physical_memory pm(
            {.total_bytes = total, .fragmentation = fragmentation},
            rng(seed));
        const std::uint64_t buffer = total * 11 / 20;
        w.begin_object();
        w.key("gib").value(gib);
        w.key("fragmentation").value(fragmentation);
        w.key("seed").value(seed);
        w.key("initial_free").value(pm.free_bytes());
        const auto first = pm.allocate(buffer);
        w.key("first_extents").value(first.size());
        w.key("first_digest").value(hex(extents_digest(first)));
        w.key("free_after_first").value(pm.free_bytes());
        pm.free(first);
        w.key("free_after_free").value(pm.free_bytes());
        const auto second = pm.allocate(buffer);
        w.key("second_digest").value(hex(extents_digest(second)));
        bool threw = false;
        try {
          (void)pm.allocate(pm.free_bytes() + os::kPageSize);
        } catch (const std::bad_alloc&) {
          threw = true;
        }
        w.key("over_size_threw").value(threw);
        w.key("free_after_rollback").value(pm.free_bytes());
        const auto huge = pm.allocate_huge_pages(3);
        w.key("huge_pages").value(huge.size());
        w.key("huge_digest").value(hex(extents_digest(huge)));
        const auto small = pm.allocate(std::uint64_t{1} << 26);
        w.key("small_digest").value(hex(extents_digest(small)));
        w.key("free_at_end").value(pm.free_bytes());
        w.end_object();
      }
    }
  }
  w.end_array();
  w.end_object();
  return w.str();
}

/// Every golden file (name without extension) and its builder.
struct golden_file {
  std::string name;
  std::string (*build)();
};

inline std::vector<golden_file> golden_files() {
  return {
      {"dramdig_no1", [] { return dramdig_document(1); }},
      {"dramdig_no2", [] { return dramdig_document(2); }},
      {"dramdig_no3", [] { return dramdig_document(3); }},
      {"dramdig_no4", [] { return dramdig_document(4); }},
      {"dramdig_no5", [] { return dramdig_document(5); }},
      {"dramdig_no6", [] { return dramdig_document(6); }},
      {"dramdig_no7", [] { return dramdig_document(7); }},
      {"dramdig_no8", [] { return dramdig_document(8); }},
      {"dramdig_no9", [] { return dramdig_document(9); }},
      {"dramdig_warm", dramdig_warm_document},
      {"baselines", baselines_document},
      {"plan_mixed", plan_mixed_document},
      {"plan_lru", plan_lru_document},
      {"os_allocate", os_allocate_document},
  };
}

}  // namespace dramdig::golden
