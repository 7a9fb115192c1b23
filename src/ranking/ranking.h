#ifndef RANKJOIN_RANKING_RANKING_H_
#define RANKJOIN_RANKING_RANKING_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace rankjoin {

class FlatRankings;

/// Identifier of a ranked item (paper: items are represented by ids).
using ItemId = uint32_t;
/// Identifier of a ranking within a dataset.
using RankingId = uint32_t;

/// A fixed-length top-k list: a bijection from k distinct items onto the
/// ranks {0, ..., k-1} (paper Section 3; rank 0 is the top item).
class Ranking {
 public:
  Ranking() = default;
  Ranking(RankingId id, std::vector<ItemId> items)
      : id_(id), items_(std::move(items)) {}

  RankingId id() const { return id_; }
  int k() const { return static_cast<int>(items_.size()); }
  const std::vector<ItemId>& items() const { return items_; }

  /// Item at rank `r` (0-based; 0 = top).
  ItemId ItemAt(int r) const { return items_[static_cast<size_t>(r)]; }

  /// Rank of `item`, or -1 if the item is not in the list. O(k) linear
  /// scan, no allocation — k is small (10..25); hot paths use
  /// OrderedRanking instead.
  int RankOf(ItemId item) const;

  /// True if all items are distinct (a valid top-k list). O(k) via a
  /// reusable thread_local scratch set — no per-call allocation.
  bool IsValid() const;

  /// "id: [i0, i1, ...]" for debugging and examples.
  std::string ToString() const;

  friend bool operator==(const Ranking& a, const Ranking& b) {
    return a.id_ == b.id_ && a.items_ == b.items_;
  }

 private:
  RankingId id_ = 0;
  std::vector<ItemId> items_;
};

/// A dataset of fixed-length rankings, all sharing the same k. The
/// canonical in-memory representation is the columnar FlatRankings store
/// returned by store(); the `rankings` vector is kept for construction
/// convenience (generators, tests, the text loader). Datasets loaded
/// from the columnar mmap format are born flat: `rankings` stays empty
/// and store() serves the mapped columns zero-copy.
struct RankingDataset {
  int k = 0;
  std::vector<Ranking> rankings;

  size_t size() const;

  /// Validates the fixed-k, distinct-items and unique-id invariants
  /// (InvalidArgument naming the offending ranking id). The last two
  /// run on the flat store, where the result is memoized so validation
  /// runs once per load.
  Status Validate() const;

  /// The canonical columnar representation. Built lazily from `rankings`
  /// on first use and cached; each call compares the cache with
  /// `rankings` (O(n*k)) and rebuilds it on any change. Attached directly
  /// (zero-copy) for mmap-loaded datasets.
  const FlatRankings& store() const;

  /// Attaches an externally built store (mmap loader); clears the cache
  /// invariant that the store mirrors `rankings`.
  void AttachStore(std::shared_ptr<const FlatRankings> store);

  bool has_store() const { return flat_ != nullptr; }

 private:
  mutable std::shared_ptr<const FlatRankings> flat_;
};

/// One (item, original rank) entry of a reordered ranking.
struct ItemEntry {
  ItemId item = 0;
  uint16_t rank = 0;

  friend bool operator==(const ItemEntry& a, const ItemEntry& b) {
    return a.item == b.item && a.rank == b.rank;
  }
};

/// Items per lane vector of the verification record: four 32-bit items,
/// one SSE2 register.
inline constexpr size_t kLaneWidth = 4;

/// Length of a verification record for rankings of length `k`: k rounded
/// up to a whole number of lane vectors.
constexpr size_t PaddedLanes(size_t k) {
  return (k + kLaneWidth - 1) / kLaneWidth * kLaneWidth;
}

/// A ranking transformed for join processing (paper Section 4 / Fig. 3).
/// Two views of the same k items:
///   - `canonical`: (item, original rank) entries in the canonical
///     (ascending global frequency) order that determines prefixes;
///   - `lanes`: the verification record, the items in rank order (lane r
///     holds the item ranked r), zero-padded to PaddedLanes(k) so the
///     distance kernels (ranking/lanes.h) load whole lane vectors. A
///     lane's position is its rank, so the record needs no sort and no
///     rank column; pad lanes carry weight 0 and never contribute.
struct OrderedRanking {
  RankingId id = 0;
  uint16_t k = 0;
  /// Entries in canonical order; the prefix of size p is the first p.
  std::vector<ItemEntry> canonical;
  /// The verification record (48 B at k = 10).
  std::vector<ItemId> lanes;
};

}  // namespace rankjoin

#endif  // RANKJOIN_RANKING_RANKING_H_
