#include "core/classifier.h"

#include <algorithm>
#include <bit>
#include <span>
#include <unordered_map>

#include "util/bitops.h"
#include "util/expect.h"
#include "util/gf2.h"
#include "util/log.h"

namespace dramdig::core {

partition_outcome bank_classifier::partition(std::vector<std::uint64_t> pool,
                                             unsigned bank_count, rng& r,
                                             const partition_config& config) {
  DRAMDIG_EXPECTS(bank_count >= 2);
  DRAMDIG_EXPECTS(pool.size() >= bank_count);
  // The representative driver leans on the plan's relation cache for its
  // vote ladder (a cast vote must be remembered, or the ladder can never
  // advance); with the cache off, the pivot-scan loop is the only sound
  // driver.
  if (config.use_representatives && plan_.config().reuse_verdicts) {
    return representative_partition(std::move(pool), bank_count, r, config);
  }
  return pivot_scan_partition(std::move(pool), bank_count, r, config);
}

// ---------------------------------------------------------------------------
// Pivot-scan loop (paper Algorithm 2): the sole driver with the cache off.
// Preserved bit-for-bit from the pre-engine partition_pool: same rng draw
// sequence, same plan calls, same acceptance rules.

partition_outcome bank_classifier::pivot_scan_partition(
    std::vector<std::uint64_t> pool, unsigned bank_count, rng& r,
    const partition_config& config) {
  partition_outcome out;

  const std::size_t pool_sz = pool.size();
  const double pile_sz =
      static_cast<double>(pool_sz) / static_cast<double>(bank_count);
  const double lo = (1.0 - config.delta_lower) * pile_sz;
  const double hi = (1.0 + config.delta) * pile_sz;
  const std::size_t stop_at = static_cast<std::size_t>(
      (1.0 - config.per_threshold) * static_cast<double>(pool_sz));
  const unsigned max_attempts = config.max_pivot_attempts != 0
                                    ? config.max_pivot_attempts
                                    : 4 * bank_count + 32;

  scan_options scan{};
  scan.verify_positives = config.verify_positives;
  scan.prescreen_sample = config.prescreen_sample;
  scan.prescreen_z = config.prescreen_z;
  scan.window = {lo, hi};

  // Partner-list buffers reused across pivot attempts; the plan reuses
  // its own scratch for the large per-scan buffers too, so the
  // O(pool * banks) loop allocates only small per-scan bookkeeping.
  std::vector<std::uint64_t> partners;
  std::vector<std::size_t> partner_idx;
  std::vector<std::size_t> members;
  partners.reserve(pool.size());
  partner_idx.reserve(pool.size());
  members.reserve(pool.size());

  unsigned attempts = 0;
  while (pool.size() > stop_at) {
    if (attempts++ >= max_attempts) {
      log_error("partition: exceeded pivot attempts with " +
                std::to_string(pool.size()) + " addresses unassigned");
      return out;  // success stays false
    }
    const std::size_t pivot_idx = r.below(pool.size());
    const std::uint64_t pivot = pool[pivot_idx];

    // One scan through the scheduler: cached relations are free, unknown
    // partners get the single-sample scan, positives the strict min-filter
    // re-check — so a contaminated sample, or a whole background-load
    // burst, cannot plant a wrong-bank address in the pile. A single
    // polluted pile would erase a true function from Algorithm 3's
    // intersection.
    partners.clear();
    partner_idx.clear();
    members.clear();
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (i == pivot_idx) continue;
      partners.push_back(pool[i]);
      partner_idx.push_back(i);
    }
    const auto verdict = plan_.classify_partners(pivot, partners, scan);
    out.reused_verdicts += verdict.reused;
    if (verdict.prescreen_rejected) {
      ++out.rejected_piles;
      ++out.prescreen_rejections;
      continue;
    }
    for (std::size_t j = 0; j < verdict.member.size(); ++j) {
      if (verdict.member[j]) members.push_back(partner_idx[j]);
    }

    // Pile size counts the pivot: the pile *is* a bank-sized class, and on
    // tiny pools (64 addresses / 8 banks) excluding the pivot would push
    // legitimate piles just below the delta window.
    const double size = static_cast<double>(members.size() + 1);
    if (size < lo || size > hi) {
      ++out.rejected_piles;
      continue;
    }

    // Accept: extract pivot + members from the pool.
    std::vector<std::uint64_t> pile;
    pile.reserve(members.size() + 1);
    pile.push_back(pivot);
    for (std::size_t i : members) pile.push_back(pool[i]);
    out.partitioned += pile.size();

    members.push_back(pivot_idx);
    std::sort(members.begin(), members.end(), std::greater<>());
    for (std::size_t i : members) {
      pool[i] = pool.back();
      pool.pop_back();
    }
    out.piles.push_back(std::move(pile));
  }

  out.success = true;
  log_info("partition: " + std::to_string(out.piles.size()) + " piles, " +
           std::to_string(out.partitioned) + "/" + std::to_string(pool_sz) +
           " assigned, " + std::to_string(out.rejected_piles) + " rejected (" +
           std::to_string(out.prescreen_rejections) + " pre-screened), " +
           std::to_string(out.reused_verdicts) + " verdicts reused");
  return out;
}

// ---------------------------------------------------------------------------
// DRAMA-style peel: the baseline's clustering sweeps through the shared
// batch substrate.

bank_classifier::peel_outcome bank_classifier::peel(
    std::vector<std::uint64_t> pool, rng& r, const peel_config& config) {
  peel_outcome out;
  scan_options opts{};
  opts.verify_positives = false;  // DRAMA trusts single samples — its flaw
  opts.prescreen_sample = 0;

  std::vector<std::uint64_t> partners;
  std::vector<std::uint64_t> rest;
  while (pool.size() > config.stop_remaining &&
         out.sweeps < config.max_sweeps) {
    ++out.sweeps;
    const std::size_t base_idx = r.below(pool.size());
    const std::uint64_t base = pool[base_idx];
    partners.clear();
    partners.reserve(pool.size());
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (i != base_idx) partners.push_back(pool[i]);
    }
    const auto verdict = plan_.classify_partners(base, partners, opts);
    std::vector<std::uint64_t> set{base};
    rest.clear();
    rest.reserve(partners.size());
    for (std::size_t j = 0; j < partners.size(); ++j) {
      (verdict.member[j] ? set : rest).push_back(partners[j]);
    }
    std::swap(pool, rest);
    if (set.size() >= config.min_set_size) {
      out.sets.push_back(std::move(set));
    }
    // Undersized sets are dropped as noise — their members are already
    // consumed, which is exactly how the original tool loses banks.
  }
  return out;
}

// ---------------------------------------------------------------------------
// Representative-based partition.

partition_outcome bank_classifier::representative_partition(
    std::vector<std::uint64_t> pool, unsigned bank_count, rng& r,
    const partition_config& config) {
  partition_outcome out;
  const std::size_t n = pool.size();
  const double pile_sz =
      static_cast<double>(n) / static_cast<double>(bank_count);
  const double lo = (1.0 - config.delta_lower) * pile_sz;
  const double hi = (1.0 + config.delta) * pile_sz;
  const std::size_t stop_at = static_cast<std::size_t>(
      (1.0 - config.per_threshold) * static_cast<double>(n));
  const std::size_t target = n - stop_at;
  const unsigned max_attempts = config.max_pivot_attempts != 0
                                    ? config.max_pivot_attempts
                                    : 4 * bank_count + 32;
  const unsigned max_reps = std::max(1u, config.max_representatives);
  const std::uint64_t free_credit =
      plan_.saved_scan_credit(config.verify_positives);

  scan_options founder_opts{};
  founder_opts.verify_positives = config.verify_positives;
  founder_opts.prescreen_sample = config.prescreen_sample;
  founder_opts.prescreen_z = config.prescreen_z;
  founder_opts.window = {lo, hi};

  // Per-address state. assigned_class holds an index into classes_;
  // exhausted marks contradiction stragglers (every representative of
  // their predicted class refuted them — noise), founder_blocked marks
  // addresses whose founder scan the window rejected.
  std::vector<int> assigned_class(n, -1);
  std::vector<char> exhausted(n, 0);
  std::vector<char> founder_blocked(n, 0);
  std::size_t assigned_count = 0;

  // ---- Per-id worklists (trusted prediction only). ------------------------
  // A trusted round touches only the addresses of a few predicted ids, so
  // the pool's open (unassigned) indices are bucketed by id in one flat
  // array: id k owns open_idx[group_begin[k], group_begin[k] + group_len[k]),
  // ascending. Entries assigned since the last visit are compacted out
  // lazily (compact_group); open_count[k] is exact at all times, exhausted
  // and founder-blocked addresses included. Built with `ids`, i.e. only
  // when the trusted basis changes.
  const unsigned want = (bank_count & (bank_count - 1)) == 0
                            ? log2_exact(bank_count)
                            : 0;
  const std::size_t groups = want == 0 ? 0 : std::size_t{1} << want;
  std::vector<std::uint64_t> ids(n, 0);
  std::vector<std::size_t> open_idx;
  std::vector<std::size_t> group_begin(groups + 1, 0);
  std::vector<std::size_t> group_len(groups, 0);
  std::vector<std::size_t> open_count(groups, 0);
  bool lists_built = false;
  const auto build_lists = [&]() {
    std::fill(open_count.begin(), open_count.end(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (assigned_class[i] < 0) ++open_count[ids[i]];
    }
    for (std::size_t k = 0; k < groups; ++k) {
      group_begin[k + 1] = group_begin[k] + open_count[k];
      group_len[k] = 0;
    }
    open_idx.resize(group_begin[groups]);
    for (std::size_t i = 0; i < n; ++i) {
      if (assigned_class[i] >= 0) continue;
      const std::uint64_t k = ids[i];
      open_idx[group_begin[k] + group_len[k]++] = i;
    }
    lists_built = true;
  };
  const auto compact_group = [&](std::uint64_t k) {
    std::size_t* const first = open_idx.data() + group_begin[k];
    std::size_t* const last =
        std::remove_if(first, first + group_len[k],
                       [&](std::size_t i) { return assigned_class[i] >= 0; });
    group_len[k] = static_cast<std::size_t>(last - first);
    return std::span<const std::size_t>(first, group_len[k]);
  };

  const auto assign = [&](std::size_t i, int c) {
    assigned_class[i] = c;
    ++assigned_count;
    if (lists_built) --open_count[ids[i]];
  };
  // Promote a freshly verified member to representative when it is
  // provably row-distinct from every current representative (a strict
  // SBDR positive proves different rows, so the memo check suffices and
  // never costs a measurement).
  const auto maybe_promote = [&](int c, std::uint64_t x) {
    std::vector<std::uint64_t>& reps = classes_[c].representatives;
    if (reps.size() >= max_reps) return;
    for (const std::uint64_t rep : reps) {
      if (!plan_.known_strict_positive(x, rep)) return;
    }
    reps.push_back(x);
  };

  // ---- Knowledge-assisted prediction. -----------------------------------
  // The strict-verified piles' XOR differences (restricted to the bits
  // that vary across the pool) span the orthogonal complement of the bank
  // functions, so the difference matrix's null space always CONTAINS the
  // true function span. When its dimension equals log2(#banks) it IS the
  // span — then every address's bank id is computable host-side and the
  // first vote goes to the right class. A thinner pile leaves the space
  // too fine (untrusted): the engine falls back to sweeping every open
  // class, which is exactly as safe and as expensive as the pivot loop.
  std::uint64_t support = 0;
  for (const std::uint64_t a : pool) support |= a ^ pool.front();
  bool trusted = false;
  gf2::matrix basis;
  gf2::matrix ids_basis;  // the basis `ids` was computed under
  // Predicted id -> the first class founded on it (-1: none yet).
  std::vector<int> id_to_class(groups, -1);
  const auto id_of = [&](std::uint64_t addr) {
    std::uint64_t id = 0;
    for (std::size_t k = 0; k < basis.size(); ++k) {
      id |= static_cast<std::uint64_t>(parity(addr, basis[k])) << k;
    }
    return id;
  };
  // Classes only ever grow by appending members (and new classes append
  // to classes_), so the difference basis is folded incrementally: each
  // refresh reduces just the members added since the last one. Only its
  // span matters below, and that is the span of every difference.
  gf2::matrix diff_basis;
  std::vector<std::size_t> folded;  // per class: members already folded
  const auto refresh_prediction = [&]() {
    trusted = false;
    std::fill(id_to_class.begin(), id_to_class.end(), -1);
    if (want == 0) return;
    folded.resize(classes_.size(), 1);
    for (std::size_t c = 0; c < classes_.size(); ++c) {
      const std::vector<std::uint64_t>& members = classes_[c].members;
      const std::uint64_t base = members.front();
      for (std::size_t i = folded[c]; i < members.size(); ++i) {
        std::uint64_t d = (members[i] ^ base) & support;
        for (const std::uint64_t b : diff_basis) {
          const int pivot_bit = 63 - std::countl_zero(b);
          if (pivot_bit >= 0 && ((d >> pivot_bit) & 1u)) d ^= b;
        }
        if (d != 0) diff_basis.push_back(d);
      }
      folded[c] = members.size();
    }
    basis = classes_.empty() ? gf2::matrix{}
                             : gf2::nullspace(diff_basis, support);
    if (basis.size() != want) {
      // Fleet warm start: while the accreted piles cannot pin the span
      // themselves, fall back to the stored sibling span — but only while
      // every measured same-bank difference stays orthogonal to it. Same-
      // bank members have equal parity under every true function, so a
      // single odd overlap proves the hint wrong for this machine and
      // latches it off; the accreted evidence then takes over exactly as
      // in a cold run.
      if (warm_span_.empty() || warm_poisoned_) return;
      gf2::matrix hint;
      for (std::uint64_t f : warm_span_) {
        if ((f &= support) != 0) hint.push_back(f);
      }
      for (const std::uint64_t d : diff_basis) {
        for (const std::uint64_t f : hint) {
          if (parity(d, f) != 0) {
            warm_poisoned_ = true;
            return;
          }
        }
      }
      hint = gf2::row_echelon(std::move(hint));
      if (hint.size() != want) return;  // hint too thin on this pool
      basis = std::move(hint);
    }
    trusted = true;
    // Once trusted the basis rarely moves, so the pool's ids are only
    // recomputed when it does.
    if (basis != ids_basis) {
      for (std::size_t i = 0; i < n; ++i) ids[i] = id_of(pool[i]);
      ids_basis = basis;
      build_lists();
    }
    for (std::size_t c = 0; c < classes_.size(); ++c) {
      int& slot = id_to_class[id_of(classes_[c].members.front())];
      if (slot < 0) slot = static_cast<int>(c);
    }
  };

  // ---- Stage 0: resolve what the plan already proves (directory reuse). --
  // Classes that survived a previous call (the bank-count sweep, repeat
  // partitions) re-claim their members straight from the union-find — no
  // measurement, the representative verdicts already merged them.
  if (!classes_.empty()) {
    std::unordered_map<std::size_t, int> root_to_class;
    for (std::size_t c = 0; c < classes_.size(); ++c) {
      const std::size_t root =
          plan_.class_root(classes_[c].representatives.front());
      if (root != measurement_plan::no_class) {
        root_to_class.emplace(root, static_cast<int>(c));
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t root = plan_.class_root(pool[i]);
      if (root == measurement_plan::no_class) continue;
      const auto hit = root_to_class.find(root);
      if (hit == root_to_class.end()) continue;
      assign(i, hit->second);
      ++out.reused_verdicts;
      ++stats_.free_assignments;
      plan_.credit_saved(free_credit);
    }
  }

  // ---- Main rounds: vote batch, then at most one founder scan. -----------
  std::vector<sim::addr_pair> vote_pairs;
  std::vector<std::size_t> vote_idx;
  std::vector<int> vote_class;
  std::vector<char> vote_fallback;
  std::vector<std::size_t> visit;
  std::vector<std::size_t> founder_candidates;
  std::vector<std::uint64_t> partners;
  std::vector<std::size_t> partner_idx;
  unsigned founder_attempts = 0;
  bool prediction_dirty = true;
  // Livelock bound: an address's ladder has at most one rung per
  // representative per class, so any stretch of all-negative vote rounds
  // longer than that means the ladder's memory is being erased out from
  // under it — fail the partition instead of spinning.
  const unsigned max_barren_rounds = bank_count * max_reps + 2;
  unsigned barren_rounds = 0;

  while (assigned_count < target) {
    if (barren_rounds > max_barren_rounds) {
      log_error("partition(rep): stalled after " +
                std::to_string(barren_rounds) + " barren vote rounds: " +
                std::to_string(classes_.size()) + "/" +
                std::to_string(bank_count) + " classes open, " +
                std::to_string(n - assigned_count) + "/" + std::to_string(n) +
                " addresses unassigned, prediction " +
                (trusted ? "trusted" : "untrusted"));
      break;  // success stays false below
    }
    const std::size_t assigned_before_round = assigned_count;
    if (prediction_dirty || !trusted) {
      refresh_prediction();
      prediction_dirty = false;
    }

    // Collect this round's votes: one (representative, address) pair per
    // unassigned address, predicted class first when the prediction is
    // trusted, open classes in discovery order otherwise. The plan's
    // relation cache is the ladder memory — a cast vote is an exact-pair
    // witness, so the next round naturally advances to the next rung.
    vote_pairs.clear();
    vote_idx.clear();
    vote_class.clear();
    vote_fallback.clear();
    founder_candidates.clear();
    std::size_t free_this_round = 0;
    const auto resolve_free = [&](std::size_t i, int c) {
      assign(i, c);
      ++out.reused_verdicts;
      ++stats_.free_assignments;
      plan_.credit_saved(free_credit);
      ++free_this_round;
    };
    const auto cast_vote = [&](std::size_t i, std::uint64_t rep, int c,
                               bool fallback) {
      vote_pairs.emplace_back(rep, pool[i]);
      vote_idx.push_back(i);
      vote_class.push_back(c);
      vote_fallback.push_back(fallback ? 1 : 0);
    };
    if (trusted) {
      // Only addresses whose predicted id has a class can vote; the rest
      // wait for a founder. Visiting them in ascending pool order keeps
      // the plan's call sequence that of a full-pool sweep.
      visit.clear();
      for (std::size_t k = 0; k < groups; ++k) {
        if (id_to_class[k] < 0) continue;
        for (const std::size_t i : compact_group(k)) {
          if (!exhausted[i]) visit.push_back(i);
        }
      }
      std::sort(visit.begin(), visit.end());
      for (const std::size_t i : visit) {
        const int c = id_to_class[ids[i]];
        const std::vector<std::uint64_t>& reps = classes_[c].representatives;
        bool resolved = false;
        bool voted = false;
        for (std::size_t ri = 0; ri < reps.size(); ++ri) {
          const pair_relation rel = plan_.relation(pool[i], reps[ri]);
          if (rel == pair_relation::same_bank) {
            resolve_free(i, c);
            resolved = true;
            break;
          }
          if (rel == pair_relation::unknown) {
            cast_vote(i, reps[ri], c, ri > 0);
            voted = true;
            break;
          }
        }
        if (!resolved && !voted) {
          // Every row-distinct representative of the (provably right)
          // class refuted this address: contamination noise. Leave it to
          // the per_threshold straggler allowance, like the paper does.
          exhausted[i] = 1;
        }
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        if (assigned_class[i] >= 0 || exhausted[i]) continue;
        const std::uint64_t x = pool[i];
        // Untrusted sweep: honour any cached positive first, then the
        // first unanswered primary vote, then the second-representative
        // fallback rung, and only then the founder queue.
        int pick_class = -1;
        std::uint64_t pick_rep = 0;
        bool resolved = false;
        for (std::size_t c = 0; c < classes_.size() && !resolved; ++c) {
          const std::vector<std::uint64_t>& reps =
              classes_[c].representatives;
          const pair_relation rel = plan_.relation(x, reps.front());
          if (rel == pair_relation::same_bank) {
            resolve_free(i, static_cast<int>(c));
            resolved = true;
          } else if (rel == pair_relation::unknown && pick_class < 0) {
            pick_class = static_cast<int>(c);
            pick_rep = reps.front();
          }
        }
        if (resolved) continue;
        bool pick_fallback = false;
        if (pick_class < 0) {
          for (std::size_t c = 0; c < classes_.size(); ++c) {
            const std::vector<std::uint64_t>& reps =
                classes_[c].representatives;
            if (reps.size() < 2) continue;
            if (plan_.relation(x, reps[1]) == pair_relation::unknown) {
              pick_class = static_cast<int>(c);
              pick_rep = reps[1];
              pick_fallback = true;
              break;
            }
          }
        }
        if (pick_class < 0) {
          founder_candidates.push_back(i);
          continue;
        }
        cast_vote(i, pick_rep, pick_class, pick_fallback);
      }
    }

    // Cast the round's votes in one batch.
    if (!vote_pairs.empty()) {
      const auto votes =
          plan_.classify_pairs(vote_pairs, config.verify_positives);
      out.reused_verdicts += votes.reused;
      for (std::size_t j = 0; j < vote_pairs.size(); ++j) {
        if (vote_fallback[j]) {
          ++out.fallback_votes;
          ++stats_.fallback_votes;
        } else {
          ++out.representative_votes;
          ++stats_.representative_votes;
        }
        if (!votes.member[j]) continue;
        const std::size_t i = vote_idx[j];
        const int c = vote_class[j];
        assign(i, c);
        classes_[c].members.push_back(pool[i]);
        maybe_promote(c, pool[i]);
        if (trusted && !vote_fallback[j]) {
          ++out.predicted_assignments;
          ++stats_.predicted_assignments;
        }
        prediction_dirty = true;
      }
    }

    // Open at most one new class per round: the founder's scan is either
    // limited to its predicted id group (trusted — the group IS the bank)
    // or the full unassigned pool with the adaptive pre-screen (untrusted
    // — the legacy-robust path).
    bool founder_ran = false;
    if (assigned_count < target && founder_attempts < max_attempts &&
        classes_.size() < bank_count) {
      std::size_t pick = n;  // n = none
      if (trusted) {
        // Largest open id group without a class founds first: most
        // information per scan. Ties go to the smallest eligible pool
        // index, keeping the choice deterministic. A group's first
        // eligible entry is found without compacting its list.
        std::size_t best = 0;
        for (std::size_t k = 0; k < groups; ++k) {
          if (id_to_class[k] >= 0 || open_count[k] == 0 ||
              open_count[k] < best) {
            continue;
          }
          const std::size_t* it = open_idx.data() + group_begin[k];
          const std::size_t* const end = it + group_len[k];
          for (; it != end; ++it) {
            const std::size_t i = *it;
            if (assigned_class[i] >= 0 || exhausted[i] ||
                founder_blocked[i]) {
              continue;
            }
            if (open_count[k] > best || i < pick) {
              best = open_count[k];
              pick = i;
            }
            break;
          }
        }
      } else {
        std::vector<std::size_t> eligible;
        for (const std::size_t i : founder_candidates) {
          if (!founder_blocked[i]) eligible.push_back(i);
        }
        if (!eligible.empty()) pick = eligible[r.below(eligible.size())];
      }
      if (pick < n) {
        ++founder_attempts;
        ++out.founder_scans;
        ++stats_.founder_scans;
        founder_ran = true;
        const std::uint64_t pivot = pool[pick];
        partners.clear();
        partner_idx.clear();
        const auto add_partner = [&](std::size_t i) {
          if (i == pick) return;
          partners.push_back(pool[i]);
          partner_idx.push_back(i);
        };
        if (trusted) {
          for (const std::size_t i : compact_group(ids[pick])) add_partner(i);
        } else {
          for (std::size_t i = 0; i < n; ++i) {
            if (assigned_class[i] < 0) add_partner(i);
          }
        }
        scan_options opts = founder_opts;
        if (trusted) {
          ++stats_.group_founder_scans;
          opts.prescreen_sample = 0;  // the group is already pile-sized
        }
        if (static_cast<double>(partners.size() + 1) < lo) {
          // The candidate pile cannot reach the window even if every
          // partner joins: reject without measuring.
          ++out.rejected_piles;
          founder_blocked[pick] = 1;
        } else {
          const auto verdict = plan_.classify_partners(pivot, partners, opts);
          out.reused_verdicts += verdict.reused;
          if (verdict.prescreen_rejected) {
            ++out.rejected_piles;
            ++out.prescreen_rejections;
            founder_blocked[pick] = 1;
          } else {
            std::size_t member_count = 0;
            for (const char m : verdict.member) member_count += m != 0;
            const double size = static_cast<double>(member_count + 1);
            if (size < lo || size > hi) {
              ++out.rejected_piles;
              founder_blocked[pick] = 1;
            } else {
              bank_class fresh;
              fresh.members.push_back(pivot);
              fresh.representatives.push_back(pivot);
              classes_.push_back(std::move(fresh));
              const int c = static_cast<int>(classes_.size()) - 1;
              assign(pick, c);
              for (std::size_t j = 0; j < partners.size(); ++j) {
                if (!verdict.member[j]) continue;
                assign(partner_idx[j], c);
                classes_[c].members.push_back(partners[j]);
                maybe_promote(c, partners[j]);
              }
              if (trusted) {
                out.predicted_assignments += member_count + 1;
                stats_.predicted_assignments += member_count + 1;
              }
              prediction_dirty = true;
            }
          }
        }
      }
    }

    if (vote_pairs.empty() && free_this_round == 0 && !founder_ran) {
      break;  // nothing left to try: stragglers beyond the ladder
    }
    // Founder scans are capped by max_attempts, so they count as progress;
    // barren stretches are only rounds of purely negative votes.
    if (assigned_count > assigned_before_round || founder_ran) {
      barren_rounds = 0;
    } else {
      ++barren_rounds;
    }
  }

  // ---- Assemble piles, re-validating the window. -------------------------
  // Directory classes founded under another bank-count hypothesis can fall
  // outside this call's window; their members then don't count as
  // partitioned (and the call fails if too little survives), which is the
  // wrong-bank-count rejection the sweep relies on.
  std::vector<std::vector<std::size_t>> pile_members(classes_.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (assigned_class[i] >= 0) {
      pile_members[static_cast<std::size_t>(assigned_class[i])].push_back(i);
    }
  }
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    if (pile_members[c].empty()) continue;
    const double size = static_cast<double>(pile_members[c].size());
    if (size < lo || size > hi) {
      ++out.rejected_piles;
      continue;
    }
    std::vector<std::uint64_t> pile;
    pile.reserve(pile_members[c].size());
    // Pivot-first ordering, matching the legacy pile shape.
    const std::uint64_t pivot = classes_[c].representatives.front();
    for (const std::size_t i : pile_members[c]) {
      if (pool[i] == pivot) pile.push_back(pool[i]);
    }
    for (const std::size_t i : pile_members[c]) {
      if (pool[i] != pivot) pile.push_back(pool[i]);
    }
    out.partitioned += pile.size();
    out.piles.push_back(std::move(pile));
  }
  out.success = out.partitioned >= target;

  if (out.success) {
    log_info("partition(rep): " + std::to_string(out.piles.size()) +
             " piles, " + std::to_string(out.partitioned) + "/" +
             std::to_string(n) + " assigned, " +
             std::to_string(out.representative_votes) + "+" +
             std::to_string(out.fallback_votes) + " votes, " +
             std::to_string(out.founder_scans) + " founder scans, " +
             std::to_string(out.predicted_assignments) + " predicted, " +
             std::to_string(out.reused_verdicts) + " verdicts reused");
  } else {
    log_error("partition(rep): only " + std::to_string(out.partitioned) +
              "/" + std::to_string(n) + " assigned after " +
              std::to_string(out.founder_scans) + " founder scans");
  }
  return out;
}

}  // namespace dramdig::core
