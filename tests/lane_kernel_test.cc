// Differential tests of the verification-record kernel (ranking/lanes.h)
// behind FootruleDistanceBounded and SetOverlap: against the hash-map
// FootruleDistance over plain Rankings and a std::set intersection, and
// the SSE2, scalar and sort-merge bodies against each other.

#include "ranking/lanes.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <optional>
#include <set>
#include <vector>

#include "common/random.h"
#include "jaccard/jaccard.h"
#include "ranking/footrule.h"
#include "ranking/reorder.h"

namespace rankjoin {
namespace {

constexpr ItemId kTopId = 4294967295u;

/// Lengths around every lane-vector boundary, the block cap (32) and far
/// above it.
const int kLengths[] = {1, 2, 3, 4, 5, 8, 10, 12, 13, 16, 17, 25, 64, 300};

OrderedRanking Ordered(const Ranking& r) {
  return MakeOrdered(r, ItemOrder());
}

/// k distinct items drawn from a domain of 2k values that contains 0 (the
/// pad value) and 2^32 − 1, so both are frequent.
Ranking RandomRanking(RankingId id, int k, Rng& rng) {
  std::vector<ItemId> domain;
  for (int v = 0; v < 2 * k; ++v) {
    domain.push_back(v == 1 ? kTopId : static_cast<ItemId>(v));
  }
  rng.Shuffle(domain);
  domain.resize(static_cast<size_t>(k));
  return Ranking(id, domain);
}

int SetIntersection(const Ranking& a, const Ranking& b) {
  const std::set<ItemId> sa(a.items().begin(), a.items().end());
  const std::set<ItemId> sb(b.items().begin(), b.items().end());
  std::vector<ItemId> both;
  std::set_intersection(sa.begin(), sa.end(), sb.begin(), sb.end(),
                        std::back_inserter(both));
  return static_cast<int>(both.size());
}

/// Checks both kernels on one pair against the references, with bounds
/// d − 1, d and d + 1 around the exact distance d.
void ExpectKernelsAgree(const Ranking& a, const Ranking& b) {
  SCOPED_TRACE(a.ToString() + " vs " + b.ToString());
  const OrderedRanking oa = Ordered(a);
  const OrderedRanking ob = Ordered(b);
  const uint32_t d = FootruleDistance(a, b);
  EXPECT_EQ(FootruleDistance(oa, ob), d);
  EXPECT_EQ(FootruleDistanceBounded(oa, ob, d), std::optional<uint32_t>(d));
  EXPECT_EQ(FootruleDistanceBounded(oa, ob, d + 1),
            std::optional<uint32_t>(d));
  if (d > 0) {
    EXPECT_EQ(FootruleDistanceBounded(oa, ob, d - 1), std::nullopt);
  }
  EXPECT_EQ(SetOverlap(oa, ob), SetIntersection(a, b));
}

TEST(LaneKernelTest, RandomPairsMatchReferences) {
  Rng rng(2020);
  for (int k : kLengths) {
    SCOPED_TRACE(k);
    for (int trial = 0; trial < 60; ++trial) {
      ExpectKernelsAgree(RandomRanking(0, k, rng), RandomRanking(1, k, rng));
    }
  }
}

TEST(LaneKernelTest, IdenticalAndDisjointPairs) {
  Rng rng(7);
  for (int k : kLengths) {
    SCOPED_TRACE(k);
    const Ranking a = RandomRanking(0, k, rng);
    ExpectKernelsAgree(a, a);
    EXPECT_EQ(FootruleDistance(Ordered(a), Ordered(a)), 0u);
    EXPECT_EQ(SetOverlap(Ordered(a), Ordered(a)), k);

    // a holds 0 (the pad value of b's record) and 2^32 − 1; b holds
    // neither, so its pad lanes are all a could wrongly match.
    std::vector<ItemId> a_items{0, kTopId};
    std::vector<ItemId> b_items;
    for (int v = 1; static_cast<int>(a_items.size()) < k; ++v) {
      a_items.push_back(static_cast<ItemId>(v));
    }
    a_items.resize(static_cast<size_t>(k));
    for (int v = 0; v < k; ++v) b_items.push_back(static_cast<ItemId>(k + v));
    for (const auto& [x, y] : {std::pair{a_items, b_items},
                               std::pair{b_items, a_items}}) {
      const Ranking rx(0, x);
      const Ranking ry(1, y);
      ExpectKernelsAgree(rx, ry);
      EXPECT_EQ(FootruleDistance(Ordered(rx), Ordered(ry)), MaxFootrule(k));
      EXPECT_EQ(SetOverlap(Ordered(rx), Ordered(ry)), 0);
    }
  }
}

/// Every rank up to k = 64; above, the ends, the ranks around the block
/// cap and the middle (all 90,000 pairs at k = 300 take seconds, and
/// minutes under the sanitizers).
std::vector<int> RanksToPair(int k) {
  std::vector<int> ranks;
  for (int r = 0; r < k; ++r) {
    if (k <= 64 || r < 3 || r >= k - 3 || (r >= 30 && r <= 34) ||
        r == k / 2) {
      ranks.push_back(r);
    }
  }
  return ranks;
}

TEST(LaneKernelTest, OneSharedItemAtEveryRankPair) {
  // Shared item 0 equals the pad value, 2^32 − 1 is the other extreme,
  // 77777 is neither.
  for (int k : kLengths) {
    SCOPED_TRACE(k);
    const std::vector<int> ranks = RanksToPair(k);
    for (ItemId shared : {ItemId{0}, kTopId, ItemId{77777}}) {
      for (int ra : ranks) {
        for (int rb : ranks) {
          std::vector<ItemId> a_items;
          std::vector<ItemId> b_items;
          for (int r = 0; r < k; ++r) {
            a_items.push_back(r == ra ? shared : static_cast<ItemId>(100 + r));
            b_items.push_back(r == rb ? shared
                                      : static_cast<ItemId>(100 + k + r));
          }
          const OrderedRanking a = Ordered(Ranking(0, a_items));
          const OrderedRanking b = Ordered(Ranking(1, b_items));
          const uint32_t expected =
              MaxFootrule(k) - 2 * static_cast<uint32_t>(k - std::max(ra, rb));
          ASSERT_EQ(FootruleDistance(a, b), expected) << ra << "," << rb;
          ASSERT_EQ(FootruleDistanceBounded(a, b, expected),
                    std::optional<uint32_t>(expected));
          if (expected > 0) {
            ASSERT_EQ(FootruleDistanceBounded(a, b, expected - 1),
                      std::nullopt);
          }
          ASSERT_EQ(SetOverlap(a, b), 1);
        }
      }
    }
  }
}

#if defined(__SSE2__)
uint32_t Sse2(const OrderedRanking& a, const OrderedRanking& b,
              LaneWeight weight, uint32_t need) {
  return internal::WeighLanesSse2(a.lanes.data(), b.lanes.data(), a.k,
                                  weight, need);
}

TEST(LaneKernelTest, Sse2BodyMatchesScalarBody) {
  Rng rng(11);
  for (int k = 1; k <= static_cast<int>(kMaxBlockLanes); ++k) {
    SCOPED_TRACE(k);
    const uint32_t uk = static_cast<uint32_t>(k);
    for (int trial = 0; trial < 200; ++trial) {
      const OrderedRanking a = Ordered(RandomRanking(0, k, rng));
      const OrderedRanking b = Ordered(RandomRanking(1, k, rng));
      for (LaneWeight weight : {LaneWeight::kShared, LaneWeight::kFootrule}) {
        const uint32_t exact =
            internal::WeighLanesScalar(a.lanes.data(), b.lanes.data(), uk,
                                       weight);
        EXPECT_EQ(Sse2(a, b, weight, /*need=*/0), exact);
      }
      // With a need, the early exit may only cut pairs below it.
      const uint32_t exact = internal::WeighLanesScalar(
          a.lanes.data(), b.lanes.data(), uk, LaneWeight::kFootrule);
      for (uint32_t need = 1; need <= MaxFootrule(k) / 2; ++need) {
        const uint32_t got = Sse2(a, b, LaneWeight::kFootrule, need);
        if (exact >= need) {
          ASSERT_EQ(got, exact) << "need " << need;
        } else {
          ASSERT_LT(got, need) << "need " << need;
        }
      }
    }
  }
}
#endif

TEST(LaneKernelTest, SortedBodyMatchesScalarBody) {
  Rng rng(13);
  for (int k : kLengths) {
    SCOPED_TRACE(k);
    const uint32_t uk = static_cast<uint32_t>(k);
    for (int trial = 0; trial < 40; ++trial) {
      const OrderedRanking a = Ordered(RandomRanking(0, k, rng));
      const OrderedRanking b = Ordered(RandomRanking(1, k, rng));
      for (LaneWeight weight : {LaneWeight::kShared, LaneWeight::kFootrule}) {
        EXPECT_EQ(
            internal::WeighLanesSorted(a.lanes.data(), b.lanes.data(), uk,
                                       weight),
            internal::WeighLanesScalar(a.lanes.data(), b.lanes.data(), uk,
                                       weight));
      }
    }
  }
}

}  // namespace
}  // namespace rankjoin
