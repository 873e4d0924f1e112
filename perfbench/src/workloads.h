// The benchmark's three workloads, each a fixed job set derived from the
// workload seed and run in closed-loop passes by one client.
//
//   cold_fleet        DRAMDig on every paper machine, several seeds each,
//                     through mapping_service (threads = 1), no store.
//   fleet_revisit     the same job mix through mapping_service against an
//                     in-memory mapping_store seeded in setup with cold
//                     recoveries of every machine but No.5 and No.9; the
//                     store is restored from that snapshot before every pass.
//   fragmented_fleet  DRAMDig through make_tool("dramdig")->run(env, hook)
//                     on environments built at fragmentation 0.6.
//
// A traced pass records host timestamps on every job event (observer or
// phase hook); untraced passes install neither.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/mapping_service.h"
#include "core/phase.h"
#include "dram/presets.h"
#include "store/mapping_store.h"

namespace perfbench {

/// One job: a paper machine and its environment seed.
struct fleet_job {
  dramdig::dram::machine_spec machine;
  std::uint64_t seed = 1;
  std::uint32_t replica = 0;
};

/// One phase event of a traced job, stamped with host time.
struct phase_event {
  std::string name;
  std::int64_t t_ns = 0;  ///< host ns since the traced pass began
  dramdig::core::phase_stats delta;
};

struct job_trace {
  std::int64_t start_ns = 0;
  std::int64_t done_ns = 0;
  std::vector<phase_event> events;
};

/// One job's outcome in one pass.
struct job_run {
  dramdig::api::tool_result result;
  bool completed = false;  ///< false when the job threw
  std::string store_hit;   ///< the service's store verdict (fleet_revisit)
  double wall_s = 0.0;     ///< host wall of the job alone
};

struct pass_run {
  std::vector<job_run> jobs;
  double wall_s = 0.0;  ///< host wall of the whole batch
};

/// Entry count and per-entry history lengths of a store, in entry order —
/// what must read the same at the start of every fleet_revisit pass.
struct store_shape {
  std::size_t size = 0;
  std::vector<std::size_t> history_lengths;
  bool operator==(const store_shape&) const = default;
};
[[nodiscard]] store_shape shape_of(const dramdig::store::mapping_store& store);

/// A fresh in-memory store holding `snapshot`'s entries.
[[nodiscard]] std::unique_ptr<dramdig::store::mapping_store> restore_store(
    const std::vector<dramdig::store::store_entry>& snapshot);

/// The store verdict a fleet_revisit job on paper machine `machine` must
/// get: No.5 is never seeded ("cold"), No.9 finds its geometry sibling
/// No.6 ("warm"), every other machine hits its own entry ("verify").
[[nodiscard]] const char* expected_store_hit(int machine);

class workload {
 public:
  /// The named workload over all nine paper machines. Throws
  /// std::invalid_argument for an unknown name.
  static std::unique_ptr<workload> make(const std::string& name,
                                        std::uint64_t seed);
  /// The named workload over `machines` (paper numbers), `replicas` seeds
  /// each — the smaller shapes the tests use.
  static std::unique_ptr<workload> make(const std::string& name,
                                        std::uint64_t seed,
                                        const std::vector<int>& machines,
                                        std::uint32_t replicas);

  virtual ~workload() = default;
  workload(const workload&) = delete;
  workload& operator=(const workload&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const std::vector<fleet_job>& jobs() const noexcept {
    return jobs_;
  }
  [[nodiscard]] virtual double fragmentation() const noexcept { return 0.1; }

  /// Untimed preparation (seeds the store where there is one; a seeding
  /// recovery that fails loudly is logged and retried with the machine's
  /// next seeding seed) plus the
  /// warm-up: the first replica's jobs, one per machine, which start the
  /// lazy worker pool and size every buffer once. Returns the warm-up's
  /// outcomes (jobs()[0..machines)) so their work can be checked against
  /// the timed passes. Repeatable.
  virtual std::vector<job_run> setup() = 0;
  /// One closed-loop pass over jobs(): submit, wait, return. With `trace`
  /// set, every job event is stamped into (*trace)[job index].
  virtual pass_run run_pass(std::vector<job_trace>* trace) = 0;
  /// The store a pass starts from (fleet_revisit), nullptr elsewhere.
  [[nodiscard]] virtual const dramdig::store::mapping_store* pass_start_store()
      const {
    return nullptr;
  }
  /// The store as the last pass left it (fleet_revisit), nullptr elsewhere.
  [[nodiscard]] virtual const dramdig::store::mapping_store* live_store()
      const {
    return nullptr;
  }
  /// Shape of the store when the last pass began (fleet_revisit).
  [[nodiscard]] virtual std::optional<store_shape> last_pass_start_shape()
      const {
    return std::nullopt;
  }

 protected:
  workload(std::string name, std::vector<fleet_job> jobs)
      : name_(std::move(name)), jobs_(std::move(jobs)) {}

 private:
  std::string name_;
  std::vector<fleet_job> jobs_;
};

}  // namespace perfbench
