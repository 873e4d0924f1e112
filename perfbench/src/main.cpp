// perfbench: the repository benchmark. One process, one client, a closed
// loop: each pass submits the workload's whole job set and waits for it.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans PATH] [--scratch PATH] [--revision REV]
//
// Prints the host block, every metric by name with its unit, and as its
// last line one JSON object {correct, attempted, failed, metrics}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exits 1 when a correctness gate fails, 2 on a usage or build error.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "layers.h"
#include "stats.h"
#include "workloads.h"

namespace {

using namespace perfbench;
using clock_type = std::chrono::steady_clock;

/// Setup is repeated this many times per run; setup_s is their median.
constexpr int kSetupRuns = 5;
/// Safety stop for the timed loop, whatever --seconds asks.
constexpr double kMaxTimedSeconds = 60.0;

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans = "perfbench-spans.json";
  std::string scratch = "perfbench-store.json";
  std::string revision = "unavailable";
};

options parse(int argc, char** argv) {
  options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(v);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace 0|1");
      o.trace = v == "1";
    } else if (flag == "--spans") {
      o.spans = v;
    } else if (flag == "--scratch") {
      o.scratch = v;
    } else if (flag == "--revision") {
      o.revision = v;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// The deterministic part of a job outcome; must repeat exactly.
struct job_work {
  bool completed = false;
  bool success = false;
  bool verified = false;
  std::uint64_t measurements = 0;
  std::uint64_t accesses = 0;
  double virtual_s = 0.0;
  std::string store_hit;
  bool operator==(const job_work&) const = default;
};

job_work work_of(const job_run& r) {
  return {r.completed,
          r.result.success,
          r.result.verified,
          r.result.measurement_count,
          r.result.access_count,
          r.result.virtual_seconds,
          r.store_hit};
}

class gates {
 public:
  /// A job whose outcome is wrong: counted in `failed`.
  void fail_job(const std::string& why) {
    ++failed_;
    note(why);
  }
  /// A check across jobs or passes: the run is not correct.
  void fail(const std::string& why) {
    broken_ = true;
    note(why);
  }
  [[nodiscard]] std::size_t failed() const { return failed_; }
  [[nodiscard]] bool correct() const { return failed_ == 0 && !broken_; }

 private:
  void note(const std::string& why) {
    if (++notes_ <= 20) std::cerr << "perfbench: GATE FAILED: " << why << "\n";
  }
  std::size_t failed_ = 0;
  std::size_t notes_ = 0;
  bool broken_ = false;
};

/// Per-job checks: no exception, no silent wrong, no failure without a
/// reason, every verified mapping equal to the preset's, the expected
/// store verdict. A loud failure (no mapping claimed, a reason given) is
/// an outcome, not a gate failure: verified_ratio counts it.
void check_job(const workload& w, const fleet_job& job, const job_run& r,
               gates& g) {
  const std::string who = job.machine.label() + " seed " +
                          std::to_string(job.seed);
  const dramdig::api::tool_result& res = r.result;
  if (!r.completed) {
    g.fail_job(who + " threw: " + res.failure_reason);
  } else if (res.success && !res.verified) {
    g.fail_job(who + " silent wrong: success without a verified mapping");
  } else if (!res.success && res.failure_reason.empty()) {
    g.fail_job(who + " failed without a reason");
  } else if (res.verified &&
             !(res.mapping && res.mapping->equivalent_to(job.machine.mapping))) {
    g.fail_job(who + " verified a mapping other than the preset's");
  } else if (w.pass_start_store() != nullptr &&
             r.store_hit != expected_store_hit(job.machine.number)) {
    g.fail_job(who + " store verdict '" + r.store_hit + "', expected '" +
               expected_store_hit(job.machine.number) + "'");
  }
}

void check_same_work(const pass_run& reference, const pass_run& p,
                     const std::string& what, gates& g) {
  for (std::size_t j = 0; j < p.jobs.size(); ++j) {
    if (!(work_of(p.jobs[j]) == work_of(reference.jobs[j]))) {
      g.fail(what + ": job " + std::to_string(j) +
             " work differs from the first timed pass");
    }
  }
}

void print_metrics(const std::vector<metric>& metrics) {
  for (const metric& m : metrics) {
    std::printf("  %-30s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

std::string result_line(const gates& g, std::size_t attempted,
                        const std::vector<metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += g.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(g.failed());
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

int run(const options& o, clock_type::time_point process_start) {
  // --- set-up, repeated; setup_s is the median -----------------------------
  std::vector<double> setup_s;
  std::unique_ptr<workload> w;
  std::vector<job_run> warmup;
  for (int i = 0; i < kSetupRuns; ++i) {
    const auto t0 = i == 0 ? process_start : clock_type::now();
    w = workload::make(o.workload, o.seed);
    warmup = w->setup();
    setup_s.push_back(
        std::chrono::duration<double>(clock_type::now() - t0).count());
  }
  const std::vector<fleet_job>& jobs = w->jobs();

  // --- timed closed loop ---------------------------------------------------
  // Only the first pass is kept whole; later passes are checked against it
  // and reduced to walls, so memory does not grow with the pass count.
  gates g;
  pass_run first;
  std::vector<pass_summary> passes;
  std::vector<std::vector<double>> walls(jobs.size());
  double timed_s = 0.0;
  std::size_t attempted = 0;
  std::optional<store_shape> first_shape;
  while (timed_s < o.seconds && timed_s < kMaxTimedSeconds) {
    pass_run p = w->run_pass(nullptr);
    timed_s += p.wall_s;
    attempted += p.jobs.size();
    if (const auto shape = w->last_pass_start_shape()) {
      if (!first_shape) first_shape = shape;
      if (!(*shape == *first_shape)) {
        g.fail("store shape at pass start differs from the first pass");
      }
    }
    pass_summary summary{p.wall_s, 0.0};
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      check_job(*w, jobs[j], p.jobs[j], g);
      walls[j].push_back(p.jobs[j].wall_s);
      summary.jobs_wall_s += p.jobs[j].wall_s;
    }
    if (passes.empty()) {
      first = std::move(p);
    } else {
      check_same_work(first, p, "timed pass", g);
    }
    passes.push_back(summary);
  }
  for (std::size_t j = 0; j < warmup.size(); ++j) {
    if (!(work_of(warmup[j]) == work_of(first.jobs[j]))) {
      g.fail("warm-up job " + std::to_string(j) +
             " work differs from the timed passes");
    }
  }

  // A job's wall is its fastest timed pass: the host's contention comes in
  // phases of several seconds that slow every job alike, and the fastest
  // pass is the estimate of the job's own cost that those phases move least.
  std::vector<double> job_walls_ms;
  for (const std::vector<double>& v : walls) {
    job_walls_ms.push_back(*std::min_element(v.begin(), v.end()) * 1e3);
  }
  const tail_stat t = tail(job_walls_ms);
  double virtual_s = 0.0, measurements = 0.0, verified = 0.0;
  for (const job_run& r : first.jobs) {
    virtual_s += r.result.virtual_seconds;
    measurements += static_cast<double>(r.result.measurement_count);
    verified += r.result.verified ? 1.0 : 0.0;
  }
  const double n = static_cast<double>(jobs.size());

  std::vector<metric> end_to_end{
      {"jobs_per_s", jobs_per_second(attempted, timed_s), "jobs/s"},
      {"job_wall_p50_ms", median(job_walls_ms), "ms"},
  };
  if (t.available) end_to_end.push_back({"job_wall_tail_ms", t.value, "ms"});
  end_to_end.insert(end_to_end.end(),
                    {{"virtual_s_per_job", virtual_s / n, "s"},
                     {"measurements_per_job", measurements / n, "count"},
                     {"verified_ratio", verified / n, "ratio"},
                     {"peak_rss_mb", peak_rss_mb(), "MB"},
                     {"setup_s", median(setup_s), "s"}});

  std::printf("host: cpu=\"%s\" nproc=%u compiler=\"%s\" flags=\"%s\" "
              "revision=%s\n",
              cpu_model().c_str(), std::thread::hardware_concurrency(),
              PERFBENCH_COMPILER, PERFBENCH_FLAGS, o.revision.c_str());
  std::vector<double> pass_walls;
  for (const pass_summary& p : passes) pass_walls.push_back(p.wall_s);
  std::printf("workload: %s seed=%llu jobs_per_pass=%zu passes=%zu "
              "timed_s=%.3f pass_s(min/median/max)=%.4f/%.4f/%.4f client=1 "
              "closed_loop service_threads=1\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              jobs.size(), passes.size(), timed_s,
              *std::min_element(pass_walls.begin(), pass_walls.end()),
              median(pass_walls),
              *std::max_element(pass_walls.begin(), pass_walls.end()));
  if (t.available) {
    std::printf("tail: p%g over %zu per-job walls (fastest pass), %zu "
                "beyond\n",
                t.percentile, t.samples, t.beyond);
  } else {
    std::printf("tail: unavailable (%zu per-job samples, fewer than 10 "
                "beyond any percentile)\n",
                t.samples);
  }
  std::size_t loud = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const dramdig::api::tool_result& r = first.jobs[j].result;
    if (r.success || !first.jobs[j].completed) continue;
    if (++loud <= 3) {
      std::printf("loud failure: %s seed %llu: %s\n",
                  jobs[j].machine.label().c_str(),
                  static_cast<unsigned long long>(jobs[j].seed),
                  r.failure_reason.c_str());
    }
  }
  std::printf("loud failures: %zu of %zu jobs per pass (in verified_ratio)\n",
              loud, jobs.size());
  std::printf("end-to-end (untraced passes):\n");
  print_metrics(end_to_end);

  std::vector<metric> reported = end_to_end;
  if (o.trace) {
    // --- traced pass over the same jobs + direct calls --------------------
    std::vector<job_trace> trace;
    const pass_run traced = w->run_pass(&trace);
    check_same_work(first, traced, "traced pass", g);
    std::vector<direct_timing> direct;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      direct.push_back(time_direct_calls(
          jobs[j], w->fragmentation(),
          verify_entry(jobs[j], w->pass_start_store())));
      if (traced.jobs[j].store_hit == "verify" &&
          direct.back().verify_measurements !=
              traced.jobs[j].result.measurement_count) {
        g.fail("direct verify of job " + std::to_string(j) +
               " does not reproduce the service's measurement count");
      }
    }
    const store_timing st =
        time_store_ops(jobs, w->pass_start_store(), o.scratch);
    if (!st.load_ok) g.fail("store load from text lost entries or warned");
    const traced_run tr{jobs, traced, trace, direct, st, passes};
    if (const std::size_t bad = inexact_span_sums(tr)) {
      g.fail(std::to_string(bad) +
             " traced jobs' spans do not sum to their measurement and "
             "virtual-time totals");
    }
    reported = layer_metrics(tr);
    write_spans(o.spans, o.workload, o.seed, tr);
    std::printf("per-layer (traced pass; attribution tolerance per job: "
                "|unattributed| <= 10%% of wall + 0.1 ms; spans in %s):\n",
                o.spans.c_str());
    print_metrics(reported);
  }
  std::printf("correct: %s (%zu of %zu job runs failed a gate)\n",
              g.correct() ? "yes" : "NO", g.failed(), attempted);
  std::printf("%s\n", result_line(g, attempted, reported).c_str());
  std::fflush(stdout);
  return g.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = clock_type::now();
#ifndef NDEBUG
  std::cerr << "perfbench: refusing to report from a build without NDEBUG\n";
  return 2;
#endif
  try {
    const options o = parse(argc, argv);
    return run(o, process_start);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
