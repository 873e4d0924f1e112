// Tests of the benchmark's own code: the tail rule, throughput arithmetic,
// seed derivation and fleet_revisit's per-pass store reset.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_THROW((void)median({}), std::invalid_argument);
}

TEST(Tail, UnavailableWithoutTenSamplesBeyondTheMedian) {
  const tail_stat t = tail(one_to(19));
  EXPECT_FALSE(t.available);
  EXPECT_EQ(t.samples, 19u);
  EXPECT_FALSE(tail({}).available);
}

TEST(Tail, TwentySamplesGiveTheMedianWithTenBeyond) {
  const tail_stat t = tail(one_to(20));
  ASSERT_TRUE(t.available);
  EXPECT_DOUBLE_EQ(t.percentile, 50.0);
  EXPECT_DOUBLE_EQ(t.value, 10.0);
  EXPECT_EQ(t.beyond, 10u);
}

TEST(Tail, PicksTheHighestPercentileWithTenBeyond) {
  // 108 jobs, the benchmark's fleet size: p95 leaves 5 beyond, p90 10.
  std::vector<double> v = one_to(108);
  std::reverse(v.begin(), v.end());  // input order must not matter
  const tail_stat t = tail(v);
  ASSERT_TRUE(t.available);
  EXPECT_DOUBLE_EQ(t.percentile, 90.0);
  EXPECT_DOUBLE_EQ(t.value, 98.0);
  EXPECT_EQ(t.samples, 108u);
  EXPECT_EQ(t.beyond, 10u);

  const tail_stat big = tail(one_to(1000));
  EXPECT_DOUBLE_EQ(big.percentile, 99.0);
  EXPECT_DOUBLE_EQ(big.value, 990.0);
  EXPECT_EQ(big.beyond, 10u);

  const tail_stat huge = tail(one_to(10000));
  EXPECT_DOUBLE_EQ(huge.percentile, 99.9);
  EXPECT_EQ(huge.beyond, 10u);
}

TEST(Throughput, JobsOverSeconds) {
  EXPECT_DOUBLE_EQ(jobs_per_second(432, 5.4), 80.0);
  EXPECT_DOUBLE_EQ(jobs_per_second(0, 2.0), 0.0);
  EXPECT_THROW((void)jobs_per_second(10, 0.0), std::invalid_argument);
  EXPECT_THROW((void)jobs_per_second(10, -1.0), std::invalid_argument);
}

TEST(JobSeed, PureNonZeroAndCollisionFree) {
  for (const std::uint64_t workload_seed : {0ull, 1ull, 2ull, 42ull,
                                            0xffffffffffffffffull}) {
    std::set<std::uint64_t> seen;
    for (int machine = 1; machine <= 9; ++machine) {
      for (std::uint32_t replica : {0u, 1u, 11u, 99u, 0xffffffffu}) {
        const std::uint64_t s = job_seed(workload_seed, machine, replica);
        EXPECT_EQ(s, job_seed(workload_seed, machine, replica));
        EXPECT_NE(s, 0u);
        EXPECT_TRUE(seen.insert(s).second)
            << "collision at machine " << machine << " replica " << replica;
      }
    }
  }
  EXPECT_NE(job_seed(1, 1, 0), job_seed(2, 1, 0));
}

TEST(Workload, JobSetIsAPureFunctionOfTheSeed) {
  const auto a = workload::make("cold_fleet", 7);
  const auto b = workload::make("cold_fleet", 7);
  const auto c = workload::make("cold_fleet", 8);
  ASSERT_EQ(a->jobs().size(), 108u);
  for (std::size_t i = 0; i < a->jobs().size(); ++i) {
    EXPECT_EQ(a->jobs()[i].seed, b->jobs()[i].seed);
    EXPECT_EQ(a->jobs()[i].machine.number, b->jobs()[i].machine.number);
    EXPECT_NE(a->jobs()[i].seed, c->jobs()[i].seed);
  }
  EXPECT_THROW((void)workload::make("no_such_workload", 1),
               std::invalid_argument);
}

TEST(FleetRevisit, StoreIsRestoredBeforeEveryPass) {
  // No.1 and No.6 are seeded (verify), No.9 warm-starts off No.6, No.5 is
  // cold: the whole hit mix on a small fleet.
  const auto w = workload::make("fleet_revisit", 3, {1, 5, 6, 9}, 1);
  (void)w->setup();
  ASSERT_NE(w->pass_start_store(), nullptr);
  const store_shape pristine = shape_of(*w->pass_start_store());
  EXPECT_EQ(pristine.size, 2u);

  std::vector<store_shape> starts;
  for (int pass = 0; pass < 3; ++pass) {
    const pass_run p = w->run_pass(nullptr);
    ASSERT_TRUE(w->last_pass_start_shape().has_value());
    starts.push_back(*w->last_pass_start_shape());
    for (std::size_t j = 0; j < p.jobs.size(); ++j) {
      EXPECT_EQ(p.jobs[j].store_hit,
                expected_store_hit(w->jobs()[j].machine.number));
      EXPECT_TRUE(p.jobs[j].result.verified);
    }
  }
  for (const store_shape& s : starts) EXPECT_EQ(s, pristine);

  // What the reset hides: every verify job appends to its entry's
  // history, and warm/cold jobs add entries.
  const store_shape after = shape_of(*w->live_store());
  EXPECT_EQ(after.size, 4u);
  std::size_t grown = 0;
  for (std::size_t i = 0; i < pristine.size; ++i) {
    grown += after.history_lengths[i] > pristine.history_lengths[i] ? 1 : 0;
  }
  EXPECT_EQ(grown, 2u);
}

TEST(FleetRevisit, LoudSeedingFailureIsRetriedWithTheNextSeed) {
  // Workload seed 123's first seeding recovery of No.3 fails loudly
  // ("partition never stabilized"); setup must still seed the store.
  const auto w = workload::make("fleet_revisit", 123, {3, 5}, 1);
  (void)w->setup();
  ASSERT_NE(w->pass_start_store(), nullptr);
  EXPECT_EQ(shape_of(*w->pass_start_store()).size, 1u);
  const pass_run p = w->run_pass(nullptr);
  EXPECT_EQ(p.jobs[0].store_hit, "verify");
  EXPECT_EQ(p.jobs[1].store_hit, "cold");
}

}  // namespace
}  // namespace perfbench
