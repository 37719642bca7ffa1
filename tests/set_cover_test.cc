#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>

#include "common/governor.h"
#include "core/set_cover.h"
#include "obs/metrics.h"
#include "obs/obs.h"

namespace mitra::core {
namespace {

DynBitset Bits(size_t n, std::initializer_list<size_t> set) {
  DynBitset b(n);
  for (size_t i : set) b.Set(i);
  return b;
}

TEST(DynBitset, Basics) {
  DynBitset b(130);
  EXPECT_TRUE(b.None());
  b.Set(0);
  b.Set(64);
  b.Set(129);
  EXPECT_EQ(b.Count(), 3u);
  EXPECT_TRUE(b.Test(64));
  EXPECT_FALSE(b.Test(63));
  b.Reset(64);
  EXPECT_FALSE(b.Test(64));
  EXPECT_TRUE(b.Any());
}

TEST(DynBitset, SetOps) {
  DynBitset a = Bits(70, {1, 2, 3});
  DynBitset b = Bits(70, {3, 4});
  DynBitset c = a;
  c |= b;
  EXPECT_EQ(c.Count(), 4u);
  DynBitset d = a;
  d &= b;
  EXPECT_EQ(d.Count(), 1u);
  EXPECT_TRUE(d.IsSubsetOf(a));
  EXPECT_FALSE(a.IsSubsetOf(b));
  EXPECT_EQ(a.CountAndNot(b), 2u);
}

TEST(DynBitset, ForEachSetBitVisitsSetBitsInOrder) {
  DynBitset b(200);
  std::vector<size_t> want{0, 1, 63, 64, 127, 128, 190, 199};
  for (size_t i : want) b.Set(i);
  std::vector<size_t> got;
  b.ForEachSetBit([&](size_t i) { got.push_back(i); });
  EXPECT_EQ(got, want);

  got.clear();
  DynBitset(130).ForEachSetBit([&](size_t i) { got.push_back(i); });
  EXPECT_TRUE(got.empty());

  DynBitset full(70);
  for (size_t i = 0; i < 70; ++i) full.Set(i);
  size_t visited = 0;
  full.ForEachSetBit([&](size_t i) { EXPECT_EQ(i, visited++); });
  EXPECT_EQ(visited, 70u);
}

TEST(MinSetCover, TrivialSingleSet) {
  std::vector<DynBitset> sets{Bits(3, {0, 1, 2})};
  auto r = MinSetCover(sets, 3);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->chosen, (std::vector<int>{0}));
  EXPECT_TRUE(r->optimal);
}

TEST(MinSetCover, ExactBeatsGreedy) {
  // Classic instance where greedy picks 3 sets but optimum is 2:
  // greedy takes the size-4 set first, then needs two more for {4},{5}.
  std::vector<DynBitset> sets{
      Bits(6, {0, 1, 2, 3}),  // greedy picks this first
      Bits(6, {0, 2, 4}),
      Bits(6, {1, 3, 5}),
  };
  SetCoverOptions exact;
  auto r = MinSetCover(sets, 6, exact);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->chosen.size(), 2u);
  EXPECT_EQ(r->chosen, (std::vector<int>{1, 2}));

  SetCoverOptions greedy;
  greedy.exact = false;
  auto g = MinSetCover(sets, 6, greedy);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->chosen.size(), 3u);
  EXPECT_FALSE(g->optimal);
}

TEST(MinSetCover, InfeasibleWhenElementUncovered) {
  std::vector<DynBitset> sets{Bits(3, {0, 1})};
  auto r = MinSetCover(sets, 3);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kSynthesisFailure);
}

TEST(MinSetCover, EmptyUniverseNeedsNothing) {
  auto r = MinSetCover({}, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->chosen.empty());
  EXPECT_TRUE(r->optimal);
}

TEST(MinSetCover, PrefersLowerIndicesOnTies) {
  std::vector<DynBitset> sets{Bits(2, {0, 1}), Bits(2, {0, 1})};
  auto r = MinSetCover(sets, 2);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->chosen, (std::vector<int>{0}));
}

TEST(MinSetCover, MediumRandomInstanceIsOptimal) {
  // 24 elements, sets of size 3 in a ring: optimum = 8 disjoint sets.
  std::vector<DynBitset> sets;
  for (size_t s = 0; s < 24; ++s) {
    sets.push_back(Bits(24, {s, (s + 1) % 24, (s + 2) % 24}));
  }
  auto r = MinSetCover(sets, 24);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->chosen.size(), 8u);
  EXPECT_TRUE(r->optimal);
}

TEST(MinSetCover, BudgetExhaustionStillReturnsCover) {
  std::vector<DynBitset> sets;
  for (size_t s = 0; s < 30; ++s) {
    sets.push_back(Bits(30, {s, (s + 7) % 30, (s + 13) % 30}));
  }
  SetCoverOptions opts;
  opts.max_nodes = 5;  // force early exhaustion
  auto r = MinSetCover(sets, 30, opts);
  ASSERT_TRUE(r.ok());
  // The greedy incumbent is still a valid cover.
  DynBitset covered(30);
  for (int i : r->chosen) covered |= sets[static_cast<size_t>(i)];
  EXPECT_EQ(covered.Count(), 30u);
}

/// Seeded random family: each set holds each element with probability
/// `percent`%, then every uncovered element joins one random set. Built
/// from raw mt19937_64 output (no distribution objects), so the instance
/// is the same on every standard library.
std::vector<DynBitset> RandomSets(uint64_t seed, size_t n, size_t m,
                                  unsigned percent) {
  std::mt19937_64 rng(seed);
  std::vector<DynBitset> sets(m, DynBitset(n));
  for (DynBitset& s : sets) {
    for (size_t e = 0; e < n; ++e) {
      if (rng() % 100 < percent) s.Set(e);
    }
  }
  for (size_t e = 0; e < n; ++e) {
    bool covered = false;
    for (const DynBitset& s : sets) covered = covered || s.Test(e);
    if (!covered) sets[rng() % m].Set(e);
  }
  return sets;
}

/// RandomSets plus, for every set, a random subset of it inserted at a
/// random position, so the domination reduction has work to do.
std::vector<DynBitset> RandomSetsWithDominated(uint64_t seed, size_t n,
                                               size_t m, unsigned percent) {
  std::vector<DynBitset> sets = RandomSets(seed, n, m, percent);
  std::mt19937_64 rng(seed + 100);
  for (size_t i = 0; i < m; ++i) {
    DynBitset sub(n);
    for (size_t e = 0; e < n; ++e) {
      if (sets[i].Test(e) && rng() % 2 != 0) sub.Set(e);
    }
    sets.insert(sets.begin() + static_cast<std::ptrdiff_t>(
                                   rng() % (sets.size() + 1)),
                sub);
  }
  return sets;
}

/// The branch-and-bound trajectory of one call: its answer, its counters
/// and the governor polls it made. Pinned so that a faster kernel must
/// visit exactly the same search tree.
struct Trajectory {
  std::vector<int> chosen;
  bool optimal = false;
  uint64_t nodes_expanded = 0;
  uint64_t nodes_bounded = 0;
  uint64_t exhausted = 0;
  uint64_t governor_checks = 0;
};

uint64_t CounterDelta(const obs::MetricsSnapshot& delta, const char* key) {
  auto it = delta.find(key);
  return it == delta.end() ? 0 : it->second;
}

void ExpectTrajectory(const std::vector<DynBitset>& sets, size_t n,
                      SetCoverOptions opts, const Trajectory& want) {
  common::Governor governor;
  if (opts.governor == nullptr) opts.governor = &governor;
  obs::MetricsSnapshot before = obs::SnapshotMetrics();
  auto r = MinSetCover(sets, n, opts);
  obs::MetricsSnapshot delta = obs::SnapshotDelta(before);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->chosen, want.chosen);
  EXPECT_EQ(r->optimal, want.optimal);
  EXPECT_EQ(opts.governor->Usage().checks, want.governor_checks);
  DynBitset covered(n);
  for (int i : r->chosen) covered |= sets[static_cast<size_t>(i)];
  EXPECT_EQ(covered.Count(), n);
  if (!MITRA_OBS) return;  // counters compile away
  EXPECT_EQ(CounterDelta(delta, "setcover/bnb/calls"), 1u);
  EXPECT_EQ(CounterDelta(delta, "setcover/bnb/nodes_expanded"),
            want.nodes_expanded);
  EXPECT_EQ(CounterDelta(delta, "setcover/bnb/nodes_bounded"),
            want.nodes_bounded);
  EXPECT_EQ(CounterDelta(delta, "setcover/bnb/exhausted"), want.exhausted);
}

TEST(MinSetCoverTrajectory, LargeInstanceProvedOptimal) {
  ExpectTrajectory(RandomSets(1, 3000, 14, 55), 3000, {},
                   {{0, 1, 2, 3, 5, 7, 9, 10}, true, 207, 130, 0, 0});
}

TEST(MinSetCoverTrajectory, LargeInstanceExhaustsDefaultBudget) {
  ExpectTrajectory(
      RandomSets(2, 4000, 24, 35), 4000, {},
      {{0, 1, 2, 3, 6, 7, 8, 9, 10, 13, 14, 17, 19, 22}, false, 200001,
       134042, 1, 195});
}

TEST(MinSetCoverTrajectory, SmallBudgetExhausts) {
  SetCoverOptions opts;
  opts.max_nodes = 5000;
  ExpectTrajectory(RandomSets(3, 600, 40, 15), 600, opts,
                   {{0,  1,  2,  3,  4,  5,  6,  7,  9,  12, 13, 14,
                     16, 18, 21, 22, 25, 26, 30, 31, 33, 35, 39},
                    false,
                    5001,
                    3314,
                    1,
                    4});
}

TEST(MinSetCoverTrajectory, MediumInstancesProvedOptimal) {
  ExpectTrajectory(
      RandomSets(4, 120, 30, 12), 120, {},
      {{0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 13, 16, 17, 18, 21, 23, 24},
       true, 117, 67, 0, 0});
  ExpectTrajectory(RandomSets(5, 200, 20, 25), 200, {},
                   {{1, 2, 3, 5, 6, 7, 8, 14, 15, 18, 19}, true, 255, 143,
                    0, 0});
}

TEST(MinSetCoverTrajectory, DominatedSetsAreReduced) {
  ExpectTrajectory(
      RandomSetsWithDominated(6, 300, 16, 20), 300, {},
      {{0, 2, 3, 4, 7, 8, 9, 10, 16, 19, 20, 23, 26, 27, 29, 31},
       true, 16, 1, 0, 0});
}

TEST(MinSetCoverTrajectory, CancelledGovernorStopsAtFirstPoll) {
  common::Governor governor;
  governor.Cancel(Status::ResourceExhausted("stop"));
  SetCoverOptions opts;
  opts.governor = &governor;
  ExpectTrajectory(
      RandomSets(2, 4000, 24, 35), 4000, opts,
      {{0, 1, 2, 3, 6, 7, 8, 9, 10, 13, 14, 17, 19, 22}, false, 1024, 678,
       1, 1});
}

/// Brute-force minimum cover size over all 2^m subfamilies.
size_t BruteForceMinCover(const std::vector<DynBitset>& sets, size_t n) {
  size_t best = sets.size() + 1;
  for (uint32_t mask = 0; mask < (uint32_t{1} << sets.size()); ++mask) {
    DynBitset covered(n);
    for (size_t k = 0; k < sets.size(); ++k) {
      if ((mask >> k) & 1) covered |= sets[k];
    }
    size_t size = static_cast<size_t>(__builtin_popcount(mask));
    if (covered.Count() == n && size < best) best = size;
  }
  return best;
}

TEST(MinSetCover, ProvedOptimalMatchesBruteForce) {
  std::mt19937_64 rng(42);
  size_t proved = 0;
  for (uint64_t seed = 0; seed < 300; ++seed) {
    size_t n = 1 + rng() % 16;
    size_t m = 1 + rng() % 10;
    unsigned percent = 10 + static_cast<unsigned>(rng() % 50);
    std::vector<DynBitset> sets = RandomSets(seed, n, m, percent);
    auto r = MinSetCover(sets, n);
    ASSERT_TRUE(r.ok()) << "seed " << seed;
    DynBitset covered(n);
    for (int i : r->chosen) covered |= sets[static_cast<size_t>(i)];
    EXPECT_EQ(covered.Count(), n) << "seed " << seed;
    if (!r->optimal) continue;
    ++proved;
    EXPECT_EQ(r->chosen.size(), BruteForceMinCover(sets, n))
        << "seed " << seed;
  }
  EXPECT_EQ(proved, 300u);
}

}  // namespace
}  // namespace mitra::core
