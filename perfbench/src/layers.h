// Per-layer measurement of one traced pass, taken from outside the program:
// host timestamps on the job events (workloads.h), direct calls that time
// the layers without events, and the attribution of each job's wall to
// layers. Also writes the job -> layer span file.
//
// Attribution of one job's host wall:
//   run jobs     os.env_build + os.map_buffer (direct calls)
//                + timing.calibration (job start -> calibration event,
//                  minus those two direct calls)
//                + core.coarse/selection/partition/functions/fine
//                  (intervals between consecutive phase events; probe-round
//                  events fold into their owning phase)
//   verify jobs  os.env_build + store.verify (direct calls)
// and api.unattributed is the rest: result assembly after the last event,
// plus any event this map does not name.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "store/mapping_store.h"
#include "workloads.h"

namespace perfbench {

struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// A job's layers timed by direct calls on fresh environments.
struct direct_timing {
  double env_build_ms = 0.0;
  double map_buffer_ms = 0.0;
  std::uint64_t buffer_extents = 0;
  double verify_ms = 0.0;
  std::uint64_t verify_measurements = 0;
};

/// The entry store.verify checks for `job`: the store's own entry on an
/// exact fingerprint hit in `pass_start` (fleet_revisit's verify jobs),
/// otherwise an entry holding the machine's preset mapping.
[[nodiscard]] dramdig::store::store_entry verify_entry(
    const fleet_job& job, const dramdig::store::mapping_store* pass_start);

/// Time core::environment construction, map_buffer at the tool's buffer
/// size, and verify_stored_mapping of `entry`, each on a fresh environment.
[[nodiscard]] direct_timing time_direct_calls(
    const fleet_job& job, double fragmentation,
    const dramdig::store::store_entry& entry);

struct store_timing {
  double find_us = 0.0;  ///< find_exact (+ find_geometry on a miss), per job
  double put_us = 0.0;   ///< put, per job
  double to_json_ms = 0.0;
  double load_ms = 0.0;  ///< mapping_store(path) over the to_json text
  bool load_ok = false;  ///< the load kept every entry, without a warning
};

/// Time the store operations of one pass over `jobs` against the pass's
/// starting store (a store of preset entries where the workload has none).
/// `scratch_path` receives the serialized store for the load.
[[nodiscard]] store_timing time_store_ops(
    const std::vector<fleet_job>& jobs,
    const dramdig::store::mapping_store* pass_start,
    const std::string& scratch_path);

/// What the per-layer metrics keep of one untraced pass.
struct pass_summary {
  double wall_s = 0.0;       ///< the batch
  double jobs_wall_s = 0.0;  ///< sum of its job walls
};

struct traced_run {
  const std::vector<fleet_job>& jobs;
  const pass_run& pass;
  const std::vector<job_trace>& trace;
  const std::vector<direct_timing>& direct;
  const store_timing& store;
  const std::vector<pass_summary>& untraced;  ///< the timed passes
};

/// Completed jobs whose spans' measurements and virtual ns do not sum to
/// the job's totals (the sums are exact when every cost is in a span).
[[nodiscard]] std::size_t inexact_span_sums(const traced_run& run);

/// Every per-layer metric, in BENCHMARK.json order.
/// trace.attribution_ok_ratio is the share of jobs within the stated
/// tolerance: |unattributed| <= 10% of the job's wall + 0.1 ms.
[[nodiscard]] std::vector<metric> layer_metrics(const traced_run& run);

/// Write the job -> layer spans of the traced pass as JSON.
void write_spans(const std::string& path, const std::string& workload,
                 std::uint64_t seed, const traced_run& run);

}  // namespace perfbench
