// Unit tests for the (R, Q, L) candidate queue of Section 6.
#include "eval/rql.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/rng.h"

namespace gdlog {
namespace {

// Snapshots are two slots wide; in merge mode the congruence key is
// position 0, so Snap(k, x) and Snap(k, y) are congruent.
class RqlTest : public ::testing::Test {
 protected:
  ValueStore store_;

  CandidateQueue Queue(CandidateQueue::Order order, bool merge,
                       uint64_t tie_seed = 0, bool linear_scan = false) {
    return CandidateQueue(&store_, order, /*stride=*/2,
                          merge ? std::vector<uint32_t>{0}
                                : std::vector<uint32_t>{},
                          tie_seed, linear_scan);
  }
  std::vector<Value> Snap(int64_t a, int64_t b) {
    return {Value::Int(a), Value::Int(b)};
  }
};

TEST_F(RqlTest, MinOrderPopsAscending) {
  CandidateQueue q = Queue(CandidateQueue::Order::kMin, /*merge=*/false);
  q.Push(Value::Int(30), Snap(1, 30));
  q.Push(Value::Int(10), Snap(2, 10));
  q.Push(Value::Int(20), Snap(3, 20));
  EXPECT_EQ(q.Pop()->cost.AsInt(), 10);
  EXPECT_EQ(q.Pop()->cost.AsInt(), 20);
  EXPECT_EQ(q.Pop()->cost.AsInt(), 30);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST_F(RqlTest, MaxOrderPopsDescending) {
  CandidateQueue q = Queue(CandidateQueue::Order::kMax, false);
  q.Push(Value::Int(30), Snap(1, 30));
  q.Push(Value::Int(10), Snap(2, 10));
  EXPECT_EQ(q.Pop()->cost.AsInt(), 30);
  EXPECT_EQ(q.Pop()->cost.AsInt(), 10);
}

TEST_F(RqlTest, FifoPreservesInsertionOrder) {
  CandidateQueue q = Queue(CandidateQueue::Order::kFifo, false);
  for (int i = 0; i < 5; ++i) q.Push(Value::Int(0), Snap(i, 0));
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(q.Pop()->snapshot[0].AsInt(), i);
  }
}

TEST_F(RqlTest, TieSeedPerturbsOrder) {
  CandidateQueue a = Queue(CandidateQueue::Order::kFifo, false, 0);
  CandidateQueue b = Queue(CandidateQueue::Order::kFifo, false, 12345);
  for (int i = 0; i < 16; ++i) {
    a.Push(Value::Int(0), Snap(i, 0));
    b.Push(Value::Int(0), Snap(i, 0));
  }
  bool differs = false;
  for (int i = 0; i < 16; ++i) {
    if (a.Pop()->snapshot[0] != b.Pop()->snapshot[0]) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST_F(RqlTest, DuplicateKeysDroppedInFullMode) {
  CandidateQueue q = Queue(CandidateQueue::Order::kMin, false);
  q.Push(Value::Int(10), Snap(1, 10));
  q.Push(Value::Int(10), Snap(1, 10));  // exact duplicate
  EXPECT_TRUE(q.Pop().has_value());
  EXPECT_FALSE(q.Pop().has_value());
  EXPECT_EQ(q.stats().merged, 1u);
}

TEST_F(RqlTest, MergeKeepsCheaperCandidate) {
  // The paper's insertion rule: a congruent, costlier fact goes to R;
  // a cheaper one supersedes the queued entry.
  CandidateQueue q = Queue(CandidateQueue::Order::kMin, /*merge=*/true);
  q.Push(Value::Int(50), Snap(7, 50));
  q.Push(Value::Int(80), Snap(7, 80));  // worse: to R
  q.Push(Value::Int(30), Snap(7, 30));  // better: supersedes
  auto c = q.Pop();
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->cost.AsInt(), 30);
  EXPECT_FALSE(q.Pop().has_value());
  EXPECT_EQ(q.stats().merged, 2u);
}

TEST_F(RqlTest, MergeMaxQueueCountsClasses) {
  CandidateQueue q = Queue(CandidateQueue::Order::kMin, true);
  for (int round = 0; round < 10; ++round) {
    for (int k = 0; k < 4; ++k) {
      q.Push(Value::Int(100 - round * 10 + k), Snap(k, round));
    }
  }
  // Only 4 congruence classes are ever live.
  EXPECT_EQ(q.stats().max_queue, 4u);
}

TEST_F(RqlTest, FiredClassBlocksReinsertion) {
  CandidateQueue q = Queue(CandidateQueue::Order::kMin, true);
  q.Push(Value::Int(10), Snap(1, 10));
  auto c = q.Pop();
  q.MarkFired(*c);
  q.Push(Value::Int(5), Snap(1, 5));  // L-hit at insertion
  EXPECT_FALSE(q.Pop().has_value());
  EXPECT_EQ(q.stats().fired, 1u);
}

TEST_F(RqlTest, RedundantClassBlockedInMergeMode) {
  CandidateQueue q = Queue(CandidateQueue::Order::kMin, true);
  q.Push(Value::Int(10), Snap(1, 10));
  auto c = q.Pop();
  q.MarkRedundant(*c);  // FD-rejected: the whole class is dead
  q.Push(Value::Int(5), Snap(1, 5));
  EXPECT_FALSE(q.Pop().has_value());
}

TEST_F(RqlTest, LinearScanModeSameResults) {
  CandidateQueue heap = Queue(CandidateQueue::Order::kMin, false, 0, false);
  CandidateQueue lin = Queue(CandidateQueue::Order::kMin, false, 0, true);
  Rng rng(3);
  std::vector<int64_t> costs;
  for (int i = 0; i < 100; ++i) costs.push_back(rng.NextInt(0, 1000) * 100 + i);
  for (int64_t c : costs) {
    heap.Push(Value::Int(c), Snap(c, 0));
    lin.Push(Value::Int(c), Snap(c, 0));
  }
  for (int i = 0; i < 100; ++i) {
    auto a = heap.Pop();
    auto b = lin.Pop();
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(a->cost, b->cost) << "at pop " << i;
  }
}

TEST_F(RqlTest, LargeVolumeHeapProperty) {
  CandidateQueue q = Queue(CandidateQueue::Order::kMin, false);
  Rng rng(9);
  for (int i = 0; i < 5000; ++i) {
    const int64_t c = rng.NextInt(0, 1'000'000) * 10'000 + i;
    q.Push(Value::Int(c), Snap(c, 0));
  }
  int64_t prev = -1;
  size_t popped = 0;
  while (auto c = q.Pop()) {
    EXPECT_GE(c->cost.AsInt(), prev);
    prev = c->cost.AsInt();
    ++popped;
  }
  EXPECT_EQ(popped, 5000u);
}

TEST_F(RqlTest, CongruentCandidatesKeepTheBetterSnapshot) {
  // Congruent (same key slot) but different in the non-key slot: the
  // cheaper candidate's whole snapshot survives, and once it fires the
  // class stays in L for any later congruent push.
  CandidateQueue q = Queue(CandidateQueue::Order::kMin, true);
  q.Push(Value::Int(50), Snap(7, 1));
  q.Push(Value::Int(30), Snap(7, 2));  // better: supersedes
  q.Push(Value::Int(40), Snap(7, 3));  // worse than the live one: to R
  q.Push(Value::Int(60), Snap(8, 4));  // another class
  EXPECT_EQ(q.LiveSize(), 2u);
  auto c = q.Pop();
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->cost.AsInt(), 30);
  ASSERT_EQ(c->snapshot.size(), 2u);
  EXPECT_EQ(c->snapshot[0].AsInt(), 7);
  EXPECT_EQ(c->snapshot[1].AsInt(), 2);
  q.MarkFired(*c);
  q.Push(Value::Int(1), Snap(7, 5));  // L-hit at insertion
  q.Push(Value::Int(2), Snap(7, 1));  // L-hit too, whatever the snapshot
  auto d = q.Pop();  // the stale (7, 1) entry is skimmed at pop
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->snapshot[0].AsInt(), 8);
  EXPECT_EQ(d->snapshot[1].AsInt(), 4);
  q.MarkFired(*d);
  EXPECT_FALSE(q.Pop().has_value());
  EXPECT_EQ(q.stats().inserted, 6u);
  EXPECT_EQ(q.stats().merged, 4u);     // supersede, worse, two L-hits
  EXPECT_EQ(q.stats().redundant, 1u);  // the stale (7, 1) entry
  EXPECT_EQ(q.stats().fired, 2u);
}

TEST_F(RqlTest, LHitAtPopSkimsStaleEntries) {
  // A class fired while its superseded entries still sit in the heap:
  // they are L-hits at pop, moved to R without being returned.
  CandidateQueue q = Queue(CandidateQueue::Order::kMax, true);
  q.Push(Value::Int(10), Snap(1, 0));
  q.Push(Value::Int(20), Snap(1, 1));  // supersedes; (1, 0) goes stale
  q.Push(Value::Int(5), Snap(2, 0));
  auto c = q.Pop();
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->cost.AsInt(), 20);
  q.MarkFired(*c);
  auto d = q.Pop();
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->cost.AsInt(), 5);
  EXPECT_EQ(q.stats().redundant, 1u);
}

TEST_F(RqlTest, FullModeRedundantClassStillDropsDuplicates) {
  CandidateQueue q = Queue(CandidateQueue::Order::kMin, false);
  q.Push(Value::Int(10), Snap(1, 10));
  auto c = q.Pop();
  ASSERT_TRUE(c.has_value());
  q.MarkRedundant(*c);
  q.Push(Value::Int(10), Snap(1, 10));  // exact re-derivation: dropped
  q.Push(Value::Int(10), Snap(1, 11));  // a different candidate
  auto d = q.Pop();
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->snapshot[1].AsInt(), 11);
  EXPECT_FALSE(q.Pop().has_value());
  EXPECT_EQ(q.stats().merged, 1u);
}

TEST_F(RqlTest, CountLiveEqualCostSkipsStaleAndFired) {
  for (const bool linear : {false, true}) {
    SCOPED_TRACE(linear ? "linear" : "heap");
    CandidateQueue q =
        Queue(CandidateQueue::Order::kMin, true, /*tie_seed=*/0, linear);
    q.Push(Value::Int(30), Snap(1, 0));
    q.Push(Value::Int(10), Snap(2, 0));
    q.Push(Value::Int(10), Snap(3, 0));
    q.Push(Value::Int(20), Snap(4, 0));
    q.Push(Value::Int(10), Snap(4, 1));  // supersedes (4, 0)
    EXPECT_EQ(q.CountLiveEqualCost(Value::Int(10)), 3u);
    EXPECT_EQ(q.CountLiveEqualCost(Value::Int(20)), 0u);  // stale
    EXPECT_EQ(q.CountLiveEqualCost(Value::Int(30)), 1u);
    auto c = q.Pop();
    ASSERT_TRUE(c.has_value());
    q.MarkFired(*c);
    EXPECT_EQ(q.CountLiveEqualCost(Value::Int(10)), 2u);
  }
}

TEST_F(RqlTest, PremisesFollowTheirSnapshot) {
  CandidateQueue q(&store_, CandidateQueue::Order::kMin, /*stride=*/2,
                   /*merge_key=*/{0});
  const std::vector<ProvPremise> p1{{1, 10}}, p2{{2, 20}, {3, 30}}, p3{};
  q.Push(Value::Int(50), Snap(7, 1), p1);
  q.Push(Value::Int(30), Snap(7, 2), p2);  // supersedes with its premises
  q.Push(Value::Int(90), Snap(7, 3), p1);  // merged away
  q.Push(Value::Int(60), Snap(8, 4), p3);
  auto c = q.Pop();
  ASSERT_TRUE(c.has_value());
  ASSERT_EQ(c->premises.size(), 2u);
  EXPECT_EQ(c->premises[0].pred, 2u);
  EXPECT_EQ(c->premises[1].row, 30u);
  q.MarkFired(*c);
  auto d = q.Pop();
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->premises.empty());
}

TEST_F(RqlTest, MergeAgreesWithInternedKeysUnderManyClasses) {
  // Reference model: one best cost per key, computed with a plain map.
  // Many classes force the class table through several growths.
  CandidateQueue q = Queue(CandidateQueue::Order::kMin, true);
  std::map<int64_t, int64_t> best;
  Rng rng(11);
  for (int i = 0; i < 4000; ++i) {
    const int64_t key = rng.NextInt(0, 700);
    const int64_t cost = rng.NextInt(0, 1'000'000) * 10'000 + i;
    q.Push(Value::Int(cost), Snap(key, i));
    auto [it, fresh] = best.try_emplace(key, cost);
    if (!fresh) it->second = std::min(it->second, cost);
  }
  EXPECT_EQ(q.LiveSize(), best.size());
  std::vector<int64_t> expected;
  for (const auto& [key, cost] : best) expected.push_back(cost);
  std::sort(expected.begin(), expected.end());
  std::vector<int64_t> popped;
  while (auto c = q.Pop()) {
    popped.push_back(c->cost.AsInt());
    EXPECT_EQ(best.at(c->snapshot[0].AsInt()), c->cost.AsInt());
    q.MarkFired(*c);
  }
  EXPECT_EQ(popped, expected);
}

}  // namespace
}  // namespace gdlog
