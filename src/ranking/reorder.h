#ifndef RANKJOIN_RANKING_REORDER_H_
#define RANKJOIN_RANKING_REORDER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "ranking/flat_rankings.h"
#include "ranking/ranking.h"

namespace rankjoin {

/// Global item statistics used to put rankings into the canonical order
/// (paper: items sorted by ascending frequency so rare items land in the
/// prefix). This is the broadcast variable of the VJ pipeline.
class ItemOrder {
 public:
  ItemOrder() = default;

  /// Builds the order from item frequencies: ties broken by item id so
  /// the canonical order is total and deterministic.
  static ItemOrder FromFrequencies(
      const std::unordered_map<ItemId, uint32_t>& freq);

  /// Canonical position of an item: smaller = rarer = earlier in every
  /// prefix. Items never seen during construction sort first (frequency
  /// 0); they get position equal to their id's two's-complement order
  /// below all known items.
  uint64_t PositionOf(ItemId item) const;

  size_t num_items() const { return position_.size(); }

 private:
  std::unordered_map<ItemId, uint64_t> position_;
};

/// Counts how many rankings each item appears in.
std::unordered_map<ItemId, uint32_t> CountItemFrequencies(
    const std::vector<Ranking>& rankings);
std::unordered_map<ItemId, uint32_t> CountItemFrequencies(
    const FlatRankings& rankings);

/// Transforms one ranking into its join representation: `canonical`
/// holds (item, original rank) entries sorted by the global item order,
/// and `lanes` the zero-padded verification record (see OrderedRanking).
OrderedRanking MakeOrdered(const Ranking& ranking, const ItemOrder& order);
/// Same, reading straight out of a columnar store slice.
OrderedRanking MakeOrdered(const RankingView& view, const ItemOrder& order);

/// Convenience: orders a whole dataset (driver-side; the distributed
/// pipelines do the same through minispark stages).
std::vector<OrderedRanking> MakeOrderedDataset(
    const std::vector<Ranking>& rankings, const ItemOrder& order);
/// Same, straight off the columnar store (works for mmap-born datasets
/// whose Ranking vector is empty).
std::vector<OrderedRanking> MakeOrderedDataset(const FlatRankings& rankings,
                                               const ItemOrder& order);

}  // namespace rankjoin

#endif  // RANKJOIN_RANKING_REORDER_H_
