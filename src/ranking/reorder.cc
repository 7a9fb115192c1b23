#include "ranking/reorder.h"

#include <algorithm>

#include "common/logging.h"

namespace rankjoin {

ItemOrder ItemOrder::FromFrequencies(
    const std::unordered_map<ItemId, uint32_t>& freq) {
  std::vector<std::pair<ItemId, uint32_t>> items(freq.begin(), freq.end());
  std::sort(items.begin(), items.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second < b.second;
              return a.first < b.first;
            });
  ItemOrder order;
  order.position_.reserve(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    // Shifted above 2^32 so that unknown item ids (raw 32-bit values)
    // sort strictly before every known item; see PositionOf.
    order.position_.emplace(items[i].first,
                            static_cast<uint64_t>(i) + (uint64_t{1} << 32));
  }
  return order;
}

uint64_t ItemOrder::PositionOf(ItemId item) const {
  auto it = position_.find(item);
  if (it != position_.end()) return it->second;
  // Unknown items behave like frequency-0 items: rarer than everything
  // seen (ascending-frequency semantics), ordered among themselves by
  // id. Known positions are shifted above 2^32, so a raw 32-bit item id
  // always sorts before them.
  return static_cast<uint64_t>(item);
}

std::unordered_map<ItemId, uint32_t> CountItemFrequencies(
    const std::vector<Ranking>& rankings) {
  std::unordered_map<ItemId, uint32_t> freq;
  for (const Ranking& r : rankings) {
    for (ItemId item : r.items()) ++freq[item];
  }
  return freq;
}

std::unordered_map<ItemId, uint32_t> CountItemFrequencies(
    const FlatRankings& rankings) {
  std::unordered_map<ItemId, uint32_t> freq;
  const ItemId* items = rankings.items();
  const size_t total = rankings.size() * static_cast<size_t>(rankings.k());
  for (size_t i = 0; i < total; ++i) ++freq[items[i]];
  return freq;
}

namespace {

OrderedRanking MakeOrderedImpl(RankingId id, const ItemId* items, size_t k,
                               const ItemOrder& order) {
  OrderedRanking out;
  out.id = id;
  out.k = static_cast<uint16_t>(k);
  out.canonical.reserve(k);
  for (size_t r = 0; r < k; ++r) {
    out.canonical.push_back(ItemEntry{items[r], static_cast<uint16_t>(r)});
  }
  std::sort(out.canonical.begin(), out.canonical.end(),
            [&order](const ItemEntry& a, const ItemEntry& b) {
              const uint64_t pa = order.PositionOf(a.item);
              const uint64_t pb = order.PositionOf(b.item);
              if (pa != pb) return pa < pb;
              return a.item < b.item;
            });
  out.lanes.assign(PaddedLanes(k), 0);
  std::copy(items, items + k, out.lanes.begin());
  return out;
}

}  // namespace

OrderedRanking MakeOrdered(const Ranking& ranking, const ItemOrder& order) {
  return MakeOrderedImpl(ranking.id(), ranking.items().data(),
                         ranking.items().size(), order);
}

OrderedRanking MakeOrdered(const RankingView& view, const ItemOrder& order) {
  return MakeOrderedImpl(view.id, view.items, view.k, order);
}

std::vector<OrderedRanking> MakeOrderedDataset(
    const std::vector<Ranking>& rankings, const ItemOrder& order) {
  std::vector<OrderedRanking> out;
  out.reserve(rankings.size());
  for (const Ranking& r : rankings) out.push_back(MakeOrdered(r, order));
  return out;
}

std::vector<OrderedRanking> MakeOrderedDataset(const FlatRankings& rankings,
                                               const ItemOrder& order) {
  std::vector<OrderedRanking> out;
  out.reserve(rankings.size());
  for (size_t i = 0; i < rankings.size(); ++i) {
    out.push_back(MakeOrdered(rankings.view(i), order));
  }
  return out;
}

}  // namespace rankjoin
