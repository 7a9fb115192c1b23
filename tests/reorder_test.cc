#include "ranking/reorder.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace rankjoin {
namespace {

TEST(CountItemFrequenciesTest, CountsAcrossRankings) {
  std::vector<Ranking> rankings = {
      Ranking(0, {1, 2, 3}),
      Ranking(1, {2, 3, 4}),
      Ranking(2, {3, 4, 5}),
  };
  auto freq = CountItemFrequencies(rankings);
  EXPECT_EQ(freq[1], 1u);
  EXPECT_EQ(freq[2], 2u);
  EXPECT_EQ(freq[3], 3u);
  EXPECT_EQ(freq[5], 1u);
}

TEST(ItemOrderTest, RarerItemsSortFirst) {
  std::unordered_map<ItemId, uint32_t> freq = {{10, 5}, {20, 1}, {30, 3}};
  ItemOrder order = ItemOrder::FromFrequencies(freq);
  EXPECT_LT(order.PositionOf(20), order.PositionOf(30));
  EXPECT_LT(order.PositionOf(30), order.PositionOf(10));
}

TEST(ItemOrderTest, TiesBrokenByItemId) {
  std::unordered_map<ItemId, uint32_t> freq = {{7, 2}, {3, 2}};
  ItemOrder order = ItemOrder::FromFrequencies(freq);
  EXPECT_LT(order.PositionOf(3), order.PositionOf(7));
}

TEST(ItemOrderTest, UnknownItemsSortBeforeKnown) {
  std::unordered_map<ItemId, uint32_t> freq = {{0, 1}};
  ItemOrder order = ItemOrder::FromFrequencies(freq);
  // Item 999 was never counted: frequency 0, rarer than everything.
  EXPECT_LT(order.PositionOf(999), order.PositionOf(0));
}

TEST(MakeOrderedTest, CanonicalSortedByFrequency) {
  // Frequencies: item 5 -> 3, item 7 -> 2, item 1 -> 1. Canonical order
  // of ranking 0 is therefore [1, 7, 5] (ascending frequency).
  std::vector<Ranking> rankings = {
      Ranking(0, {5, 1, 7}),
      Ranking(1, {5, 7, 2}),
      Ranking(2, {5, 3, 4}),
  };
  ItemOrder order = ItemOrder::FromFrequencies(CountItemFrequencies(rankings));
  OrderedRanking o = MakeOrdered(rankings[0], order);
  EXPECT_EQ(o.id, 0u);
  EXPECT_EQ(o.k, 3);
  EXPECT_EQ(o.canonical.front().item, 1u);  // unique item first
  EXPECT_EQ(o.canonical.back().item, 5u);   // most frequent last
}

TEST(MakeOrderedTest, OriginalRanksPreserved) {
  std::vector<Ranking> rankings = {Ranking(0, {5, 1, 7})};
  ItemOrder order = ItemOrder::FromFrequencies(CountItemFrequencies(rankings));
  OrderedRanking o = MakeOrdered(rankings[0], order);
  for (const ItemEntry& e : o.canonical) {
    EXPECT_EQ(rankings[0].ItemAt(e.rank), e.item);
  }
}

TEST(MakeOrderedTest, LanesHoldItemsInRankOrder) {
  // Lane r holds the item ranked r; the record is zero-padded to whole
  // lane vectors (k = 5 -> 8 lanes).
  std::vector<Ranking> rankings = {Ranking(0, {9, 4, 6, 1, 7})};
  OrderedRanking o = MakeOrdered(rankings[0], ItemOrder());
  ASSERT_EQ(o.lanes.size(), PaddedLanes(5));
  ASSERT_EQ(o.lanes.size(), 8u);
  for (int r = 0; r < 5; ++r) {
    EXPECT_EQ(o.lanes[static_cast<size_t>(r)], rankings[0].ItemAt(r));
  }
  for (size_t lane = 5; lane < o.lanes.size(); ++lane) {
    EXPECT_EQ(o.lanes[lane], 0u);
  }
  // Every canonical entry's (item, rank) is the record's lane at that rank.
  for (const ItemEntry& e : o.canonical) EXPECT_EQ(o.lanes[e.rank], e.item);
}

TEST(MakeOrderedDatasetTest, PreservesOrderAndSize) {
  std::vector<Ranking> rankings = {Ranking(3, {1, 2}), Ranking(9, {2, 3})};
  auto ordered = MakeOrderedDataset(rankings, ItemOrder());
  ASSERT_EQ(ordered.size(), 2u);
  EXPECT_EQ(ordered[0].id, 3u);
  EXPECT_EQ(ordered[1].id, 9u);
}

}  // namespace
}  // namespace rankjoin
