#include "core/measurement_plan.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/address_selection.h"
#include "core/partition.h"
#include "core_test_util.h"
#include "util/rng.h"

namespace dramdig::core {
namespace {

using testing::pipeline_fixture;

std::vector<std::uint64_t> pool_for(pipeline_fixture& f,
                                    std::vector<unsigned> bank_bits) {
  const auto sel = select_addresses(f.buffer, bank_bits);
  EXPECT_TRUE(sel.found);
  return sel.pool;
}

scan_options default_scan() {
  scan_options s{};
  s.verify_positives = true;
  s.prescreen_sample = 0;  // exercised separately
  return s;
}

TEST(MeasurementPlan, CacheOffMatchesPlainChannelScan) {
  // reuse_verdicts = false must reproduce the pre-scheduler scan sequence
  // bit for bit: fast batch, then the strict batch over the positives.
  pipeline_fixture a(1), b(1);
  const auto pool = pool_for(a, {6, 14, 15, 16, 17, 18, 19});
  const std::uint64_t pivot = pool.front();
  const std::vector<std::uint64_t> partners(pool.begin() + 1, pool.end());

  measurement_plan plan(a.channel, {.reuse_verdicts = false});
  const auto got = plan.classify_partners(pivot, partners, default_scan());
  ASSERT_FALSE(got.prescreen_rejected);
  EXPECT_EQ(got.reused, 0u);

  const std::vector<char> fast = b.channel.is_sbdr_fast_batch(pivot, partners);
  std::vector<sim::addr_pair> candidates;
  std::vector<std::size_t> candidate_idx;
  for (std::size_t i = 0; i < partners.size(); ++i) {
    if (fast[i]) {
      candidates.emplace_back(pivot, partners[i]);
      candidate_idx.push_back(i);
    }
  }
  std::vector<char> want(partners.size(), 0);
  const std::vector<char> strict = b.channel.is_sbdr_strict_batch(candidates);
  for (std::size_t j = 0; j < strict.size(); ++j) {
    want[candidate_idx[j]] = strict[j];
  }
  EXPECT_EQ(got.member, want);
  EXPECT_EQ(a.env.mach().controller().measurement_count(),
            b.env.mach().controller().measurement_count());
}

TEST(MeasurementPlan, RescanIsAnsweredEntirelyFromCache) {
  pipeline_fixture f(1);
  const auto pool = pool_for(f, {6, 14, 15, 16, 17, 18, 19});
  const std::uint64_t pivot = pool.front();
  const std::vector<std::uint64_t> partners(pool.begin() + 1, pool.end());

  measurement_plan plan(f.channel);
  const auto first = plan.classify_partners(pivot, partners, default_scan());
  const std::uint64_t after_first =
      f.env.mach().controller().measurement_count();
  const auto second = plan.classify_partners(pivot, partners, default_scan());
  EXPECT_EQ(f.env.mach().controller().measurement_count(), after_first)
      << "rescan paid for measurements the cache already holds";
  EXPECT_EQ(second.member, first.member);
  EXPECT_EQ(second.reused, partners.size());
  EXPECT_GT(plan.stats().measurements_saved, partners.size());
}

TEST(MeasurementPlan, RelationTracksVerdictsTransitively) {
  pipeline_fixture f(1);
  const auto pool = pool_for(f, {6, 14, 15, 16, 17, 18, 19});
  const std::uint64_t pivot = pool.front();
  const std::vector<std::uint64_t> partners(pool.begin() + 1, pool.end());

  measurement_plan plan(f.channel);
  EXPECT_EQ(plan.relation(pivot, partners[0]), pair_relation::unknown);
  const auto scan = plan.classify_partners(pivot, partners, default_scan());

  std::vector<std::uint64_t> members, outsiders;
  for (std::size_t i = 0; i < partners.size(); ++i) {
    (scan.member[i] ? members : outsiders).push_back(partners[i]);
  }
  ASSERT_GE(members.size(), 2u);
  ASSERT_FALSE(outsiders.empty());
  EXPECT_EQ(plan.relation(pivot, members[0]), pair_relation::same_bank);
  // Transitivity through the union-find: two members never measured
  // against each other are still known same-bank.
  EXPECT_EQ(plan.relation(members[0], members[1]), pair_relation::same_bank);
  EXPECT_EQ(plan.relation(pivot, outsiders[0]), pair_relation::cross_pile);
  // The ground truth agrees with every cached member relation.
  const auto& truth = f.env.spec().mapping;
  for (std::uint64_t m : members) {
    EXPECT_EQ(truth.bank_of(m), truth.bank_of(pivot));
  }
}

TEST(MeasurementPlan, StrictMemoAnswersRepeatedVotes) {
  pipeline_fixture f(1);
  std::vector<sim::addr_pair> pairs;
  for (unsigned i = 1; i <= 32; ++i) {
    pairs.emplace_back(0, (std::uint64_t{i} << 14) &
                              (f.env.spec().memory_bytes - 1));
  }
  // Include an in-batch duplicate (symmetric order, too).
  pairs.push_back(pairs.front());
  pairs.emplace_back(pairs.front().second, pairs.front().first);

  measurement_plan plan(f.channel);
  const auto first = plan.is_sbdr_strict_batch(pairs);
  EXPECT_EQ(first[first.size() - 2], first.front());
  EXPECT_EQ(first.back(), first.front());
  const std::uint64_t issued = f.env.mach().controller().measurement_count();
  const auto second = plan.is_sbdr_strict_batch(pairs);
  EXPECT_EQ(second, first);
  EXPECT_EQ(f.env.mach().controller().measurement_count(), issued);
}

TEST(MeasurementPlan, ScanSampleReuseSavesOneStrictMeasurementPerMember) {
  // With reuse off, every verified candidate costs strict_samples() fresh
  // measurements on top of its scan sample; with reuse on, one of them is
  // the scan sample itself.
  pipeline_fixture with(1), without(1);
  const auto pool = pool_for(with, {6, 14, 15, 16, 17, 18, 19});
  const std::uint64_t pivot = pool.front();
  const std::vector<std::uint64_t> partners(pool.begin() + 1, pool.end());

  measurement_plan reuse(with.channel, {.reuse_scan_sample = true});
  measurement_plan fresh(without.channel, {.reuse_scan_sample = false});
  const auto got_reuse = reuse.classify_partners(pivot, partners, default_scan());
  const auto got_fresh = fresh.classify_partners(pivot, partners, default_scan());

  const std::uint64_t count_reuse =
      with.env.mach().controller().measurement_count();
  const std::uint64_t count_fresh =
      without.env.mach().controller().measurement_count();
  // Same fixtures up to the scan, so the fast verdicts agree; the reuse
  // run then pays exactly one measurement less per candidate.
  EXPECT_LT(count_reuse, count_fresh);
  std::size_t members = 0;
  for (char m : got_reuse.member) members += m != 0;
  EXPECT_GE(members, 2u);
  // Both scans classify the true bank: the verdict distribution is
  // unchanged by substituting one iid sample.
  const auto& truth = with.env.spec().mapping;
  for (std::size_t i = 0; i < partners.size(); ++i) {
    if (got_reuse.member[i]) {
      EXPECT_EQ(truth.bank_of(partners[i]), truth.bank_of(pivot));
    }
    if (got_fresh.member[i]) {
      EXPECT_EQ(truth.bank_of(partners[i]), truth.bank_of(pivot));
    }
  }
}

TEST(MeasurementPlan, PrescreenRejectsHopelessPivotCheaply) {
  // A window sized for 8x the machine's real bank count: every pivot's
  // projected pile is ~8x oversized, so the pre-screen must reject from
  // its sample alone — this is the wrong-bank-count sweep's fast path.
  pipeline_fixture f(6);
  const auto pool = pool_for(f, {7, 8, 9, 12, 13, 14, 15, 16, 17, 18, 19, 20,
                                 21, 22});
  const std::uint64_t pivot = pool.front();
  const std::vector<std::uint64_t> partners(pool.begin() + 1, pool.end());

  scan_options scan = default_scan();
  scan.prescreen_sample = 64;
  const double pile = static_cast<double>(pool.size()) /
                      static_cast<double>(8 * f.knowledge.total_banks);
  scan.window = {0.6 * pile, 1.2 * pile};

  measurement_plan plan(f.channel);
  const std::uint64_t before = f.env.mach().controller().measurement_count();
  const auto got = plan.classify_partners(pivot, partners, scan);
  const std::uint64_t spent =
      f.env.mach().controller().measurement_count() - before;
  EXPECT_TRUE(got.prescreen_rejected);
  EXPECT_EQ(plan.stats().prescreen_rejections, 1u);
  // Far below a full scan (pool fast samples + strict verification).
  EXPECT_LT(spent, partners.size() / 2);
}

TEST(MeasurementPlan, PrescreenPassesInWindowPivots) {
  // The true window on the same machine: the pre-screen must not reject a
  // legitimate pivot, and the final members must be the true bank.
  pipeline_fixture f(6);
  const auto pool = pool_for(f, {7, 8, 9, 12, 13, 14, 15, 16, 17, 18, 19, 20,
                                 21, 22});
  const std::uint64_t pivot = pool.front();
  const std::vector<std::uint64_t> partners(pool.begin() + 1, pool.end());

  scan_options scan = default_scan();
  scan.prescreen_sample = 64;
  const double pile = static_cast<double>(pool.size()) /
                      static_cast<double>(f.knowledge.total_banks);
  scan.window = {0.6 * pile, 1.2 * pile};

  measurement_plan plan(f.channel);
  const auto got = plan.classify_partners(pivot, partners, scan);
  ASSERT_FALSE(got.prescreen_rejected);
  const auto& truth = f.env.spec().mapping;
  std::size_t members = 0;
  for (std::size_t i = 0; i < partners.size(); ++i) {
    if (!got.member[i]) continue;
    ++members;
    EXPECT_EQ(truth.bank_of(partners[i]), truth.bank_of(pivot));
  }
  EXPECT_GT(static_cast<double>(members + 1), scan.window.lo);
}

TEST(MeasurementPlan, ResetDropsEveryCachedRelation) {
  // The pipeline's retry loop resets the plan so a poisoned merge cannot
  // outlive the attempt that produced it: after reset, nothing is implied
  // and a rescan pays for fresh measurements again.
  pipeline_fixture f(1);
  const auto pool = pool_for(f, {6, 14, 15, 16, 17, 18, 19});
  const std::uint64_t pivot = pool.front();
  const std::vector<std::uint64_t> partners(pool.begin() + 1, pool.end());

  measurement_plan plan(f.channel);
  const auto first = plan.classify_partners(pivot, partners, default_scan());
  ASSERT_GT(plan.class_count(), 0u);
  plan.reset();
  EXPECT_EQ(plan.class_count(), 0u);
  EXPECT_EQ(plan.relation(pivot, partners[0]), pair_relation::unknown);
  const std::uint64_t before = f.env.mach().controller().measurement_count();
  const auto second = plan.classify_partners(pivot, partners, default_scan());
  EXPECT_GT(f.env.mach().controller().measurement_count(), before)
      << "reset plan must re-measure";
  EXPECT_EQ(second.reused, 0u);
  // Verdicts still classify the true bank.
  const auto& truth = f.env.spec().mapping;
  for (std::size_t i = 0; i < partners.size(); ++i) {
    if (second.member[i]) {
      EXPECT_EQ(truth.bank_of(partners[i]), truth.bank_of(pivot));
    }
  }
  (void)first;
}

TEST(MeasurementPlan, DeterministicOnParallelBatchPath) {
  // A >4096-partner scan pushes the controller's batched decode onto its
  // multi-shard path; the plan's verdicts, class structure and stats must
  // be identical to an equally seeded run (the controller guarantees
  // bit-identical batches on any thread count, and the plan must not add
  // any ordering of its own on top).
  pipeline_fixture a(6, 11), b(6, 11);
  const auto pool = pool_for(a, {7, 8, 9, 12, 13, 14, 15, 16, 17, 18, 19, 20,
                                 21, 22});
  ASSERT_GT(pool.size(), 4096u);
  const std::uint64_t pivot = pool.front();
  const std::vector<std::uint64_t> partners(pool.begin() + 1, pool.end());

  measurement_plan plan_a(a.channel), plan_b(b.channel);
  const auto got_a = plan_a.classify_partners(pivot, partners, default_scan());
  const auto got_b = plan_b.classify_partners(pivot, partners, default_scan());
  EXPECT_EQ(got_a.member, got_b.member);
  EXPECT_EQ(plan_a.class_count(), plan_b.class_count());
  EXPECT_EQ(plan_a.stats().measurements_issued,
            plan_b.stats().measurements_issued);
  EXPECT_EQ(plan_a.stats().classes_merged, plan_b.stats().classes_merged);
  EXPECT_EQ(plan_a.stats().negatives_recorded,
            plan_b.stats().negatives_recorded);
  EXPECT_EQ(a.env.mach().clock().now_ns(), b.env.mach().clock().now_ns());
}

TEST(MeasurementPlan, RepeatedPartitionsGetSuperlinearlyCheaper) {
  // The headline reuse property: re-partitioning an already classified
  // pool (the bank-count sweep, the attempt loop) costs less every time.
  // Run 2 gets the class members for free and seeds a second row-distinct
  // witness on every negative; by run 3 the witness pairs answer the
  // negatives too, and scans cost almost nothing. Pinned to the pivot-scan
  // driver: this is the plan's own reuse property, independent of the
  // classifier's class directory (which has its own test).
  pipeline_fixture f(1);
  const auto pool = pool_for(f, {6, 14, 15, 16, 17, 18, 19});
  measurement_plan plan(f.channel);
  auto& controller = f.env.mach().controller();
  partition_config cfg{};
  cfg.use_representatives = false;

  const std::uint64_t base = controller.measurement_count();
  const auto first = partition_pool(plan, pool, 16, f.r, cfg);
  ASSERT_TRUE(first.success);
  const std::uint64_t cost1 = controller.measurement_count() - base;

  const auto second = partition_pool(plan, pool, 16, f.r, cfg);
  ASSERT_TRUE(second.success);
  const std::uint64_t cost2 = controller.measurement_count() - base - cost1;

  const auto third = partition_pool(plan, pool, 16, f.r, cfg);
  ASSERT_TRUE(third.success);
  const std::uint64_t cost3 =
      controller.measurement_count() - base - cost1 - cost2;

  EXPECT_LT(cost2, cost1 * 3 / 4);
  EXPECT_LT(cost3, cost2);
  EXPECT_LT(cost3, cost1 / 4);
  EXPECT_GT(second.reused_verdicts, 0u);
  EXPECT_GT(third.reused_verdicts, second.reused_verdicts);
  // Piles stay pure banks throughout.
  const auto& truth = f.env.spec().mapping;
  for (const auto* outcome : {&first, &second, &third}) {
    for (const auto& pile : outcome->piles) {
      for (std::uint64_t p : pile) {
        EXPECT_EQ(truth.bank_of(p), truth.bank_of(pile.front()));
      }
    }
  }
}

TEST(MeasurementPlan, ClassifyPairsVerdictsMatchGroundTruthAndFeedCache) {
  pipeline_fixture f(1);
  const auto pool = pool_for(f, {6, 14, 15, 16, 17, 18, 19});
  const auto& truth = f.env.spec().mapping;

  // Anchor the pool's first address against every other: the verdict must
  // be "same bank AND different row", and every verdict must be queryable
  // from the cache afterwards.
  std::vector<sim::addr_pair> pairs;
  for (std::size_t i = 1; i < pool.size(); ++i) {
    pairs.emplace_back(pool.front(), pool[i]);
  }
  measurement_plan plan(f.channel);
  const auto votes = plan.classify_pairs(pairs, /*verify_positives=*/true);
  EXPECT_EQ(votes.reused, 0u);
  std::size_t positives = 0;
  for (std::size_t j = 0; j < pairs.size(); ++j) {
    const bool same_bank_diff_row =
        truth.bank_of(pairs[j].first) == truth.bank_of(pairs[j].second) &&
        truth.row_of(pairs[j].first) != truth.row_of(pairs[j].second);
    EXPECT_EQ(votes.member[j] != 0, same_bank_diff_row);
    positives += votes.member[j] != 0;
    const pair_relation rel = plan.relation(pairs[j].first, pairs[j].second);
    EXPECT_EQ(rel, votes.member[j] ? pair_relation::same_bank
                                   : pair_relation::cross_pile);
  }
  ASSERT_GT(positives, 0u);

  // A repeat of the same votes answers entirely from the cache.
  const std::uint64_t count = f.env.mach().controller().measurement_count();
  const auto again = plan.classify_pairs(pairs, true);
  EXPECT_EQ(again.member, votes.member);
  EXPECT_EQ(again.reused, pairs.size());
  EXPECT_EQ(f.env.mach().controller().measurement_count(), count);
}

TEST(MeasurementPlan, WitnessListsAreBoundedWithLruEviction) {
  // A long-lived service must not grow the witness lists without bound:
  // with max_witnesses = 2, a third rejecting anchor evicts the oldest
  // entry — that relation degrades to unknown (re-measurable), while the
  // recently recorded ones stay cached.
  pipeline_fixture f(1);
  const auto pool = pool_for(f, {6, 14, 15, 16, 17, 18, 19});
  const auto& truth = f.env.spec().mapping;

  // One subject plus several anchors in other banks.
  const std::uint64_t subject = pool.front();
  std::vector<std::uint64_t> anchors;
  for (std::size_t i = 1; i < pool.size() && anchors.size() < 4; ++i) {
    if (truth.bank_of(pool[i]) != truth.bank_of(subject)) {
      anchors.push_back(pool[i]);
    }
  }
  ASSERT_EQ(anchors.size(), 4u);

  measurement_plan plan(f.channel, {.max_witnesses = 2});
  for (const std::uint64_t a : anchors) {
    const sim::addr_pair pair{a, subject};
    const auto votes = plan.classify_pairs({&pair, 1}, true);
    EXPECT_EQ(votes.member.front(), 0);
  }
  EXPECT_GE(plan.stats().witnesses_evicted, 2u);
  // The two most recent anchors are still cached; the first was evicted.
  EXPECT_EQ(plan.relation(anchors[3], subject), pair_relation::cross_pile);
  EXPECT_EQ(plan.relation(anchors[2], subject), pair_relation::cross_pile);
  EXPECT_EQ(plan.relation(anchors[0], subject), pair_relation::unknown);

  // Unbounded config never evicts on the same sequence.
  pipeline_fixture g(1);
  measurement_plan unbounded(g.channel, {.max_witnesses = 0});
  for (const std::uint64_t a : anchors) {
    const sim::addr_pair pair{a, subject};
    (void)unbounded.classify_pairs({&pair, 1}, true);
  }
  EXPECT_EQ(unbounded.stats().witnesses_evicted, 0u);
  EXPECT_EQ(unbounded.relation(anchors[0], subject),
            pair_relation::cross_pile);
}

}  // namespace
}  // namespace dramdig::core
