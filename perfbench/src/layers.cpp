#include "layers.h"

#include <chrono>
#include <cmath>
#include <map>
#include <string_view>

#include "core/dramdig.h"
#include "core/environment.h"
#include "stats.h"
#include "store/verify.h"
#include "sysinfo/system_info.h"
#include "util/gf2.h"
#include "util/json.h"

namespace perfbench {

namespace core = dramdig::core;
namespace store = dramdig::store;
using clock_type = std::chrono::steady_clock;

namespace {

/// Repetitions of each store operation loop, for a figure above timer
/// resolution.
constexpr int kStoreReps = 20;

double ms_since(clock_type::time_point t0) {
  return std::chrono::duration<double, std::milli>(clock_type::now() - t0)
      .count();
}

/// The layer a phase event's interval belongs to; empty when unnamed.
std::string_view layer_of(std::string_view phase) {
  if (phase == "calibration") return "timing.calibration";
  if (phase == "coarse" || phase.starts_with("probe:coarse")) {
    return "core.coarse";
  }
  if (phase == "fine" || phase.starts_with("probe:fine")) return "core.fine";
  if (phase == "selection") return "core.selection";
  if (phase == "partition") return "core.partition";
  if (phase == "functions") return "core.functions";
  return {};
}

struct span {
  std::string layer;
  std::string phase;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double virtual_ns = 0.0;
  std::uint64_t measurements = 0;
};

struct job_attribution {
  std::map<std::string, double, std::less<>> ms;  ///< layer -> host ms
  double pre_phase_ms = 0.0;
  double wall_ms = 0.0;
  double unattributed_ms = 0.0;
  std::vector<span> spans;
};

job_attribution attribute(const job_run& run, const job_trace& trace,
                          const direct_timing& direct) {
  job_attribution a;
  a.wall_ms = run.wall_s * 1e3;
  a.ms["os.env_build"] = direct.env_build_ms;
  if (run.store_hit == "verify") a.ms["store.verify"] = direct.verify_ms;
  std::int64_t prev = trace.start_ns;
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const phase_event& e = trace.events[i];
    const std::string_view layer = layer_of(e.name);
    double interval_ms = static_cast<double>(e.t_ns - prev) / 1e6;
    a.spans.push_back({layer.empty() ? "unattributed" : std::string(layer),
                       e.name, prev, e.t_ns, e.delta.seconds * 1e9,
                       e.delta.measurements});
    prev = e.t_ns;
    if (i == 0) {
      a.pre_phase_ms = interval_ms;
      if (layer == "timing.calibration") {
        // The window before the first event also built the environment
        // and mapped the buffer; those two come from the direct calls.
        a.ms["os.map_buffer"] = direct.map_buffer_ms;
        interval_ms -= direct.env_build_ms + direct.map_buffer_ms;
      }
    }
    if (!layer.empty()) a.ms[std::string(layer)] += interval_ms;
  }
  if (trace.events.empty() && run.store_hit == "verify") {
    // Verification emits no phase events: one span covers the job.
    a.spans.push_back({"store.verify", "verify", trace.start_ns,
                       trace.done_ns, run.result.virtual_seconds * 1e9,
                       run.result.measurement_count});
  }
  double attributed = 0.0;
  for (const auto& [layer, ms] : a.ms) attributed += ms;
  a.unattributed_ms = a.wall_ms - attributed;
  return a;
}

std::vector<job_attribution> attribute_all(const traced_run& run) {
  std::vector<job_attribution> out;
  for (std::size_t j = 0; j < run.jobs.size(); ++j) {
    out.push_back(attribute(run.pass.jobs[j], run.trace[j], run.direct[j]));
  }
  return out;
}

bool within_tolerance(double unattributed_ms, double wall_ms) {
  return std::abs(unattributed_ms) <= 0.1 * wall_ms + 0.1;
}

double ratio(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

store::store_entry preset_entry(const fleet_job& job) {
  store::store_entry e;
  e.fingerprint = dramdig::sysinfo::fingerprint(job.machine);
  e.bank_functions = job.machine.mapping.bank_functions();
  e.row_bits = job.machine.mapping.row_bits();
  e.column_bits = job.machine.mapping.column_bits();
  e.address_bits = job.machine.mapping.address_bits();
  e.function_span = dramdig::gf2::row_echelon(e.bank_functions);
  e.history.push_back({"recovered", job.seed, 0});
  e.evidence_digest = e.compute_evidence_digest();
  return e;
}

}  // namespace

store::store_entry verify_entry(const fleet_job& job,
                                const store::mapping_store* pass_start) {
  if (pass_start != nullptr) {
    if (auto hit =
            pass_start->find_exact(dramdig::sysinfo::fingerprint(job.machine))) {
      return *hit;
    }
  }
  return preset_entry(job);
}

direct_timing time_direct_calls(const fleet_job& job, double fragmentation,
                                const store::store_entry& entry) {
  direct_timing d;
  const auto bytes = static_cast<std::uint64_t>(
      core::dramdig_config{}.buffer_fraction *
      static_cast<double>(job.machine.memory_bytes));
  {
    auto t0 = clock_type::now();
    core::environment env(job.machine, job.seed, fragmentation);
    d.env_build_ms = ms_since(t0);
    t0 = clock_type::now();
    const auto& region = env.space().map_buffer(bytes);
    d.map_buffer_ms = ms_since(t0);
    d.buffer_extents = region.backing().size();
  }
  core::environment env(job.machine, job.seed, fragmentation);
  const auto t0 = clock_type::now();
  const store::verify_report vr = store::verify_stored_mapping(env, entry);
  d.verify_ms = ms_since(t0);
  d.verify_measurements = vr.total_measurements;
  return d;
}

store_timing time_store_ops(const std::vector<fleet_job>& jobs,
                            const store::mapping_store* pass_start,
                            const std::string& scratch_path) {
  std::vector<store::store_entry> start_entries;
  if (pass_start != nullptr) {
    start_entries = pass_start->entries();
  } else {
    for (const fleet_job& job : jobs) {
      if (job.replica == 0) start_entries.push_back(preset_entry(job));
    }
  }
  std::vector<dramdig::sysinfo::machine_fingerprint> fps;
  std::vector<store::store_entry> updates;
  for (const fleet_job& job : jobs) {
    fps.push_back(dramdig::sysinfo::fingerprint(job.machine));
    updates.push_back(preset_entry(job));
  }
  const double per_job = static_cast<double>(jobs.size() * kStoreReps);

  store_timing t;
  const std::unique_ptr<store::mapping_store> s =
      restore_store(start_entries);
  auto t0 = clock_type::now();
  for (int rep = 0; rep < kStoreReps; ++rep) {
    for (const auto& fp : fps) {
      if (!s->find_exact(fp)) (void)s->find_geometry(fp);
    }
  }
  t.find_us = ms_since(t0) * 1e3 / per_job;
  t0 = clock_type::now();
  for (int rep = 0; rep < kStoreReps; ++rep) {
    for (const store::store_entry& e : updates) s->put(e);
  }
  t.put_us = ms_since(t0) * 1e3 / per_job;
  std::string text;
  t0 = clock_type::now();
  for (int rep = 0; rep < kStoreReps; ++rep) text = s->to_json();
  t.to_json_ms = ms_since(t0) / kStoreReps;
  dramdig::write_file(scratch_path, text);
  bool ok = true;
  t0 = clock_type::now();
  for (int rep = 0; rep < kStoreReps; ++rep) {
    const store::mapping_store loaded(scratch_path);
    ok = ok && loaded.size() == s->size() && loaded.load_warning().empty();
  }
  t.load_ms = ms_since(t0) / kStoreReps;
  t.load_ok = ok;
  return t;
}

std::size_t inexact_span_sums(const traced_run& run) {
  std::size_t bad = 0;
  const std::vector<job_attribution> attrs = attribute_all(run);
  for (std::size_t j = 0; j < attrs.size(); ++j) {
    const dramdig::api::tool_result& r = run.pass.jobs[j].result;
    if (!run.pass.jobs[j].completed) continue;
    std::uint64_t measurements = 0;
    double virtual_ns = 0.0;
    for (const span& s : attrs[j].spans) {
      measurements += s.measurements;
      virtual_ns += s.virtual_ns;
    }
    const double total_ns = r.virtual_seconds * 1e9;
    if (measurements != r.measurement_count ||
        std::abs(virtual_ns - total_ns) > 1e-9 * total_ns + 1.0) {
      ++bad;
    }
  }
  return bad;
}

std::vector<metric> layer_metrics(const traced_run& run) {
  const std::vector<job_attribution> attrs = attribute_all(run);
  const double n = static_cast<double>(run.jobs.size());
  const auto mean_layer = [&](std::string_view layer) {
    double sum = 0.0;
    for (const job_attribution& a : attrs) {
      if (const auto it = a.ms.find(layer); it != a.ms.end()) sum += it->second;
    }
    return sum / n;
  };

  double extents = 0, env_ms = 0, map_ms = 0, verify_ms = 0, verify_m = 0;
  for (const direct_timing& d : run.direct) {
    extents += static_cast<double>(d.buffer_extents);
    env_ms += d.env_build_ms;
    map_ms += d.map_buffer_ms;
    verify_ms += d.verify_ms;
    verify_m += static_cast<double>(d.verify_measurements);
  }

  double cal_pairs = 0, part_meas = 0, part_events = 0;
  double measured = 0, saved = 0, rounds = 0, cast = 0, votes_saved = 0,
         reused = 0;
  double hit_verify = 0, hit_warm = 0, hit_cold = 0;
  for (std::size_t j = 0; j < run.jobs.size(); ++j) {
    for (const phase_event& e : run.trace[j].events) {
      if (e.name == "calibration") {
        cal_pairs += static_cast<double>(e.delta.pairs_used);
      }
      if (e.name == "partition") {
        part_meas += static_cast<double>(e.delta.measurements);
        part_events += 1;
      }
    }
    const job_run& r = run.pass.jobs[j];
    measured += static_cast<double>(r.result.measurement_count);
    saved += static_cast<double>(r.result.measurements_saved);
    rounds += static_cast<double>(r.result.probe_rounds.rounds);
    cast += static_cast<double>(r.result.probe_rounds.votes_cast);
    votes_saved += static_cast<double>(r.result.probe_rounds.votes_saved);
    reused += static_cast<double>(r.result.probe_rounds.reused_votes);
    hit_verify += r.store_hit == "verify" ? 1 : 0;
    hit_warm += r.store_hit == "warm" ? 1 : 0;
    hit_cold += r.store_hit == "cold" ? 1 : 0;
  }

  double pre_phase = 0, unattributed = 0, ok = 0;
  for (const job_attribution& a : attrs) {
    pre_phase += a.pre_phase_ms;
    unattributed += a.unattributed_ms;
    ok += within_tolerance(a.unattributed_ms, a.wall_ms) ? 1 : 0;
  }

  double overhead = 0.0;
  std::vector<double> untraced_walls;
  for (const pass_summary& p : run.untraced) {
    overhead += (p.wall_s - p.jobs_wall_s) * 1e3 / n;
    untraced_walls.push_back(p.wall_s);
  }

  const double calibration_ms = mean_layer("timing.calibration");
  return {
      {"os.env_build_ms", env_ms / n, "ms"},
      {"os.map_buffer_ms", map_ms / n, "ms"},
      {"os.buffer_extents", extents / n, "count"},
      {"timing.calibration_ms", calibration_ms, "ms"},
      {"timing.calibration_pairs", cal_pairs / n, "count"},
      {"sim.calibration_ns_per_pair",
       ratio(calibration_ms * n * 1e6, cal_pairs), "ns"},
      {"core.partition_ms", mean_layer("core.partition"), "ms"},
      {"core.partition_measurements", part_meas / n, "count"},
      {"core.partition_attempts", part_events / n, "count"},
      {"core.plan_saved_ratio", ratio(saved, measured + saved), "ratio"},
      {"core.coarse_ms", mean_layer("core.coarse"), "ms"},
      {"core.fine_ms", mean_layer("core.fine"), "ms"},
      {"core.selection_ms", mean_layer("core.selection"), "ms"},
      {"core.functions_ms", mean_layer("core.functions"), "ms"},
      {"core.pre_phase_ms", pre_phase / n, "ms"},
      {"core.probe_rounds", rounds / n, "count"},
      {"core.probe_votes_cast", cast / n, "count"},
      {"core.probe_votes_saved_ratio", ratio(votes_saved, cast + votes_saved),
       "ratio"},
      {"core.probe_reused_ratio", ratio(reused, cast), "ratio"},
      {"store.verify_ms", verify_ms / n, "ms"},
      {"store.verify_measurements", verify_m / n, "count"},
      {"store.find_us", run.store.find_us, "us"},
      {"store.put_us", run.store.put_us, "us"},
      {"store.to_json_ms", run.store.to_json_ms, "ms"},
      {"store.load_ms", run.store.load_ms, "ms"},
      {"store.hit_verify", hit_verify, "count"},
      {"store.hit_warm", hit_warm, "count"},
      {"store.hit_cold", hit_cold, "count"},
      {"api.batch_overhead_ms",
       overhead / static_cast<double>(run.untraced.size()), "ms"},
      {"api.unattributed_ms", unattributed / n, "ms"},
      {"trace.overhead_ratio", run.pass.wall_s / median(untraced_walls) - 1.0,
       "ratio"},
      {"trace.attribution_ok_ratio", ok / n, "ratio"},
  };
}

void write_spans(const std::string& path, const std::string& workload,
                 std::uint64_t seed, const traced_run& run) {
  const std::vector<job_attribution> attrs = attribute_all(run);
  dramdig::json_writer w;
  w.begin_object();
  w.key("workload").value(workload);
  w.key("seed").value(seed);
  w.key("clock").value(
      "host ns since the traced pass began; virtual ns of the simulated "
      "machine");
  w.key("jobs").begin_array();
  for (std::size_t j = 0; j < run.jobs.size(); ++j) {
    const job_run& r = run.pass.jobs[j];
    const job_trace& t = run.trace[j];
    const direct_timing& d = run.direct[j];
    w.begin_object();
    w.key("index").value(j);
    w.key("machine").value(run.jobs[j].machine.label());
    w.key("seed").value(run.jobs[j].seed);
    w.key("store_hit").value(r.store_hit);
    w.key("verified").value(r.result.verified);
    w.key("start_ns").value(t.start_ns);
    w.key("end_ns").value(t.done_ns);
    w.key("host_ns").value(r.wall_s * 1e9);
    w.key("virtual_ns").value(r.result.virtual_seconds * 1e9);
    w.key("measurements").value(r.result.measurement_count);
    w.key("unattributed_ns").value(attrs[j].unattributed_ms * 1e6);
    w.key("spans").begin_array();
    for (const span& s : attrs[j].spans) {
      w.begin_object();
      w.key("layer").value(s.layer);
      w.key("phase").value(s.phase);
      w.key("start_ns").value(s.start_ns);
      w.key("end_ns").value(s.end_ns);
      w.key("virtual_ns").value(s.virtual_ns);
      w.key("measurements").value(s.measurements);
      w.end_object();
    }
    w.end_array();
    w.key("direct").begin_array();
    w.begin_object();
    w.key("layer").value("os.env_build");
    w.key("host_ns").value(d.env_build_ms * 1e6);
    w.end_object();
    w.begin_object();
    w.key("layer").value("os.map_buffer");
    w.key("host_ns").value(d.map_buffer_ms * 1e6);
    w.key("extents").value(d.buffer_extents);
    w.end_object();
    w.begin_object();
    w.key("layer").value("store.verify");
    w.key("host_ns").value(d.verify_ms * 1e6);
    w.key("measurements").value(d.verify_measurements);
    w.end_object();
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  dramdig::write_file(path, w.str());
}

}  // namespace perfbench
