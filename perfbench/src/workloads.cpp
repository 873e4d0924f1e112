#include "workloads.h"

#include <chrono>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "core/environment.h"
#include "stats.h"

namespace perfbench {

namespace api = dramdig::api;
namespace core = dramdig::core;
namespace dram = dramdig::dram;
namespace store = dramdig::store;
using clock_type = std::chrono::steady_clock;

namespace {

/// Seeds per machine. Nine machines x 12 gives 108 distinct jobs, so the
/// tail is a p90 with 10 jobs beyond it. That rank falls in the middle of
/// the slowest group (the 24 No.6/No.9 jobs cold, the 12 cold No.5 jobs
/// on fleet_revisit) rather than on the edge between two groups, where it
/// would flip between them from run to run. fragmented_fleet's jobs each
/// map 7.8k-31k extents, so it runs 72 jobs: a p80 tail, inside its
/// slowest group (the 16 GiB machines).
constexpr std::uint32_t kFleetReplicas = 12;
constexpr std::uint32_t kFragmentedReplicas = 8;
/// Replica indices of fleet_revisit's seeding recoveries count down from
/// here: outside the pass replicas, so setup never recovers a machine with
/// a pass job's seed.
constexpr std::uint32_t kSeedingReplica = 0xffffffffu;
/// Seeding attempts per machine before setup gives up.
constexpr std::uint32_t kSeedingAttempts = 4;
constexpr double kFragmentedFraction = 0.6;

std::int64_t ns_since(clock_type::time_point origin) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             clock_type::now() - origin)
      .count();
}

double seconds_between(clock_type::time_point a, clock_type::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::vector<fleet_job> fleet(std::uint64_t seed,
                             const std::vector<int>& machines,
                             std::uint32_t replicas) {
  std::vector<fleet_job> jobs;
  for (std::uint32_t k = 0; k < replicas; ++k) {
    for (const int m : machines) {
      jobs.push_back({dram::machine_by_number(m), job_seed(seed, m, k), k});
    }
  }
  return jobs;
}

std::vector<api::job_spec> specs_of(const std::vector<fleet_job>& jobs) {
  std::vector<api::job_spec> specs;
  specs.reserve(jobs.size());
  for (const fleet_job& j : jobs) {
    specs.push_back({j.machine, "dramdig", api::tool_options{}, j.seed});
  }
  return specs;
}

job_run from_outcome(const api::job_outcome& o) {
  return {o.result, o.state == api::job_state::completed, o.store_hit,
          o.wall_seconds};
}

/// Stamps every service job event with host time.
class trace_observer final : public api::progress_observer {
 public:
  trace_observer(std::vector<job_trace>& trace, clock_type::time_point origin)
      : trace_(trace), origin_(origin) {}

  void on_job_start(std::size_t i, const api::job_spec&) override {
    trace_.at(i).start_ns = ns_since(origin_);
  }
  void on_job_phase(std::size_t i, std::string_view phase,
                    const core::phase_stats& delta) override {
    trace_.at(i).events.push_back(
        {std::string(phase), ns_since(origin_), delta});
  }
  void on_job_done(std::size_t i, const api::job_outcome&) override {
    trace_.at(i).done_ns = ns_since(origin_);
  }

 private:
  std::vector<job_trace>& trace_;
  clock_type::time_point origin_;
};

/// cold_fleet and fleet_revisit: batches through mapping_service with one
/// worker. With seeding machines the service consults a store that is
/// restored from the post-seeding snapshot before every pass.
class service_workload final : public workload {
 public:
  service_workload(std::string name, std::uint64_t seed,
                   std::vector<fleet_job> jobs, std::vector<fleet_job> seeding)
      : workload(std::move(name), std::move(jobs)),
        seed_(seed),
        specs_(specs_of(this->jobs())),
        seeding_(specs_of(seeding)) {}

  std::vector<job_run> setup() override {
    if (!seeding_.empty()) {
      store_ = std::make_unique<store::mapping_store>();
      seed_store();
      snapshot_ = store_->entries();
      pristine_ = restore_store(snapshot_);
      store_ = restore_store(snapshot_);
    }
    std::vector<api::job_spec> warmup;
    for (std::size_t i = 0; i < jobs().size() && jobs()[i].replica == 0;
         ++i) {
      warmup.push_back(specs_[i]);
    }
    std::vector<job_run> out;
    for (const api::job_outcome& o : service().run(warmup)) {
      out.push_back(from_outcome(o));
    }
    return out;
  }

  pass_run run_pass(std::vector<job_trace>* trace) override {
    if (pristine_) {
      store_ = restore_store(snapshot_);
      start_shape_ = shape_of(*store_);
    }
    pass_run out;
    const auto t0 = clock_type::now();
    std::vector<api::job_outcome> outcomes;
    if (trace != nullptr) {
      trace->assign(specs_.size(), job_trace{});
      trace_observer observer(*trace, t0);
      outcomes = service().run(specs_, &observer);
    } else {
      outcomes = service().run(specs_);
    }
    out.wall_s = seconds_between(t0, clock_type::now());
    out.jobs.reserve(outcomes.size());
    for (const api::job_outcome& o : outcomes) {
      out.jobs.push_back(from_outcome(o));
    }
    return out;
  }

  const store::mapping_store* pass_start_store() const override {
    return pristine_.get();
  }
  const store::mapping_store* live_store() const override {
    return store_.get();
  }
  std::optional<store_shape> last_pass_start_shape() const override {
    return start_shape_;
  }

 private:
  [[nodiscard]] api::mapping_service service() const {
    return api::mapping_service({.threads = 1, .store = store_.get()});
  }

  /// Cold recoveries of the seeding machines into store_. DRAMDig fails
  /// loudly on a small share of seeds of the noisy units (NOTES.md), and
  /// a fleet operator would re-run such a recovery, so a loud failure is
  /// retried with the machine's next seeding seed; a silent wrong throws.
  void seed_store() {
    std::vector<api::job_spec> pending = seeding_;
    for (std::uint32_t attempt = 0; !pending.empty(); ++attempt) {
      if (attempt == kSeedingAttempts) {
        throw std::runtime_error("store seeding of " +
                                 pending.front().machine.label() +
                                 " failed on every attempt");
      }
      const auto outcomes = service().run(pending);
      std::vector<api::job_spec> retry;
      for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const api::tool_result& r = outcomes[i].result;
        if (r.verified) continue;
        if (r.success) {
          throw std::runtime_error("store seeding of " +
                                   pending[i].machine.label() +
                                   " returned a wrong mapping");
        }
        const int m = pending[i].machine.number;
        std::fprintf(stderr,
                     "perfbench: seeding recovery of %s (seed %llu) failed: "
                     "%s; retrying with its next seeding seed\n",
                     pending[i].machine.label().c_str(),
                     static_cast<unsigned long long>(pending[i].seed),
                     r.failure_reason.c_str());
        retry.push_back(pending[i]);
        retry.back().seed = job_seed(seed_, m, kSeedingReplica - attempt - 1);
      }
      pending = std::move(retry);
    }
  }

  std::uint64_t seed_;
  std::vector<api::job_spec> specs_;
  std::vector<api::job_spec> seeding_;
  std::vector<store::store_entry> snapshot_;
  std::unique_ptr<store::mapping_store> pristine_;
  std::unique_ptr<store::mapping_store> store_;
  std::optional<store_shape> start_shape_;
};

/// fragmented_fleet: each job builds its own fragmented environment and
/// runs the tool directly, the caller's phase hook carrying the trace.
class fragmented_workload final : public workload {
 public:
  fragmented_workload(std::string name, std::vector<fleet_job> jobs)
      : workload(std::move(name), std::move(jobs)) {}

  double fragmentation() const noexcept override {
    return kFragmentedFraction;
  }

  std::vector<job_run> setup() override {
    std::vector<job_run> out;
    for (std::size_t i = 0; i < jobs().size() && jobs()[i].replica == 0;
         ++i) {
      out.push_back(run_job(jobs()[i], nullptr, {}));
    }
    return out;
  }

  pass_run run_pass(std::vector<job_trace>* trace) override {
    pass_run out;
    const auto t0 = clock_type::now();
    if (trace != nullptr) trace->assign(jobs().size(), job_trace{});
    out.jobs.reserve(jobs().size());
    for (std::size_t i = 0; i < jobs().size(); ++i) {
      out.jobs.push_back(
          run_job(jobs()[i], trace != nullptr ? &(*trace)[i] : nullptr, t0));
    }
    out.wall_s = seconds_between(t0, clock_type::now());
    return out;
  }

 private:
  job_run run_job(const fleet_job& job, job_trace* trace,
                  clock_type::time_point origin) const {
    job_run out;
    const auto t0 = clock_type::now();
    if (trace != nullptr) trace->start_ns = ns_since(origin);
    try {
      core::environment env(job.machine, job.seed, kFragmentedFraction);
      api::mapping_tool::phase_hook hook;
      if (trace != nullptr) {
        hook = [trace, origin](std::string_view phase,
                               const core::phase_stats& delta) {
          trace->events.push_back(
              {std::string(phase), ns_since(origin), delta});
        };
      }
      out.result = api::make_tool("dramdig")->run(env, hook);
      out.completed = true;
    } catch (const std::exception& e) {
      out.result.tool = "dramdig";
      out.result.outcome = "error";
      out.result.failure_reason = e.what();
    }
    out.wall_s = seconds_between(t0, clock_type::now());
    if (trace != nullptr) trace->done_ns = ns_since(origin);
    return out;
  }
};

}  // namespace

store_shape shape_of(const store::mapping_store& s) {
  store_shape shape;
  const std::vector<store::store_entry> entries = s.entries();
  shape.size = entries.size();
  for (const store::store_entry& e : entries) {
    shape.history_lengths.push_back(e.history.size());
  }
  return shape;
}

std::unique_ptr<store::mapping_store> restore_store(
    const std::vector<store::store_entry>& snapshot) {
  auto s = std::make_unique<store::mapping_store>();
  for (const store::store_entry& e : snapshot) s->put(e);
  return s;
}

const char* expected_store_hit(int machine) {
  if (machine == 5) return "cold";
  if (machine == 9) return "warm";
  return "verify";
}

std::unique_ptr<workload> workload::make(const std::string& name,
                                         std::uint64_t seed) {
  std::vector<int> all;
  for (const dram::machine_spec& m : dram::paper_machines()) {
    all.push_back(m.number);
  }
  return make(name, seed, all,
              name == "fragmented_fleet" ? kFragmentedReplicas
                                         : kFleetReplicas);
}

std::unique_ptr<workload> workload::make(const std::string& name,
                                         std::uint64_t seed,
                                         const std::vector<int>& machines,
                                         std::uint32_t replicas) {
  std::vector<fleet_job> jobs = fleet(seed, machines, replicas);
  if (name == "cold_fleet") {
    return std::make_unique<service_workload>(name, seed, std::move(jobs),
                                              std::vector<fleet_job>{});
  }
  if (name == "fleet_revisit") {
    std::vector<fleet_job> seeding;
    for (const int m : machines) {
      if (std::string_view(expected_store_hit(m)) == "verify") {
        seeding.push_back(
            {dram::machine_by_number(m), job_seed(seed, m, kSeedingReplica),
             kSeedingReplica});
      }
    }
    return std::make_unique<service_workload>(name, seed, std::move(jobs),
                                              std::move(seeding));
  }
  if (name == "fragmented_fleet") {
    return std::make_unique<fragmented_workload>(name, std::move(jobs));
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
