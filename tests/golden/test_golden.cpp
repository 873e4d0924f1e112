// Holds the live code to the recorded golden transcripts (see
// transcript.h): every document is rebuilt from scratch and compared
// field by field against tests/golden/<name>.json.
#include <gtest/gtest.h>

#include <string>

#include "transcript.h"
#include "util/json.h"

namespace dramdig::golden {
namespace {

/// Recursive structural comparison; reports the JSON path of each
/// difference (capped so one drift does not flood the log).
void expect_same(const json_value& want, const json_value& got,
                 const std::string& path, int& budget) {
  if (budget <= 0) return;
  const auto fail = [&](const std::string& what) {
    ADD_FAILURE() << path << ": " << what;
    --budget;
  };
  if (want.type() != got.type()) return fail("kind differs");
  switch (want.type()) {
    case json_value::kind::null:
      return;
    case json_value::kind::boolean:
      if (want.as_bool() != got.as_bool()) fail("boolean differs");
      return;
    case json_value::kind::number:
      if (want.as_double() != got.as_double()) {
        fail("recorded " + std::to_string(want.as_double()) + ", got " +
             std::to_string(got.as_double()));
      }
      return;
    case json_value::kind::string:
      if (want.as_string() != got.as_string()) {
        fail("recorded \"" + want.as_string() + "\", got \"" +
             got.as_string() + "\"");
      }
      return;
    case json_value::kind::array:
      if (want.size() != got.size()) return fail("array length differs");
      for (std::size_t i = 0; i < want.size(); ++i) {
        expect_same(want[i], got[i], path + "[" + std::to_string(i) + "]",
                    budget);
      }
      return;
    case json_value::kind::object: {
      const auto& wm = want.members();
      const auto& gm = got.members();
      if (wm.size() != gm.size()) return fail("member count differs");
      for (std::size_t i = 0; i < wm.size(); ++i) {
        if (wm[i].first != gm[i].first) {
          return fail("member " + wm[i].first + " vs " + gm[i].first);
        }
        expect_same(wm[i].second, gm[i].second, path + "." + wm[i].first,
                    budget);
      }
      return;
    }
  }
}

void expect_matches_golden(const golden_file& g) {
  const json_value want = json_value::parse(
      read_file(std::string(DRAMDIG_GOLDEN_DIR) + "/" + g.name + ".json"));
  const json_value got = json_value::parse(g.build());
  int budget = 20;
  expect_same(want, got, g.name, budget);
}

const golden_file& file_named(const std::string& name) {
  static const std::vector<golden_file> files = golden_files();
  for (const golden_file& g : files) {
    if (g.name == name) return g;
  }
  throw std::out_of_range(name);
}

class GoldenTranscript : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenTranscript, MatchesRecording) {
  expect_matches_golden(file_named(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    Recorded, GoldenTranscript,
    ::testing::Values("dramdig_no1", "dramdig_no2", "dramdig_no3",
                      "dramdig_no4", "dramdig_no5", "dramdig_no6",
                      "dramdig_no7", "dramdig_no8", "dramdig_no9",
                      "dramdig_warm", "baselines"),
    [](const auto& info) { return info.param; });

// The measurement plan's arena index replaced an unordered_map backend;
// both transcripts below were recorded from the map backend, so the arena
// is held to the map backend's exact verdicts, class structure, LRU
// eviction order, stats counters and controller traffic.
TEST(MeasurementPlan, ArenaIndexMatchesMapBackendOnMixedWorkload) {
  expect_matches_golden(file_named("plan_mixed"));
}

TEST(MeasurementPlan, ArenaIndexMatchesMapBackendUnderLruEviction) {
  expect_matches_golden(file_named("plan_lru"));
}

// Recorded from the erase-per-exhausted-extent allocator; the
// order-statistic allocator must hand out the same extents, draw the same
// rng values and leave the same free list.
TEST(PhysicalMemory, AllocatorMatchesRecordedExtents) {
  expect_matches_golden(file_named("os_allocate"));
}

}  // namespace
}  // namespace dramdig::golden
