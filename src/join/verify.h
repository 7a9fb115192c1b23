#ifndef RANKJOIN_JOIN_VERIFY_H_
#define RANKJOIN_JOIN_VERIFY_H_

#include <cstdint>
#include <optional>

#include "join/stats.h"
#include "ranking/ranking.h"

namespace rankjoin {

/// Verification kernel shared by every join algorithm: computes the
/// bounded Footrule distance between two rankings, maintains the
/// `verified` counter, and returns the raw distance when it is within
/// `raw_theta`.
std::optional<uint32_t> VerifyPair(const OrderedRanking& a,
                                   const OrderedRanking& b,
                                   uint32_t raw_theta, JoinStats* stats);

/// Read-only view resolving ranking ids to their OrderedRanking.
///
/// The paper's Spark implementation carries whole rankings inside the
/// shuffled tuples (Figures 3-4); in-process we achieve the same data
/// availability by sharing one immutable table, avoiding redundant
/// copies without changing which stage can see which ranking.
class RankingTable {
 public:
  /// `rankings` must outlive the table. Ids may be sparse.
  explicit RankingTable(const std::vector<OrderedRanking>& rankings);

  const OrderedRanking& Get(RankingId id) const;
  size_t size() const { return rankings_->size(); }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;

  /// Home slot of `id`: Fibonacci hashing, so dense ids spread without
  /// collisions and strided ids do not pile up.
  size_t Slot(RankingId id) const {
    return static_cast<size_t>(
        (static_cast<uint64_t>(id) * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  const std::vector<OrderedRanking>* rankings_;
  /// Open-addressing hash table with linear probing: each slot holds a
  /// position in *rankings_, or kEmpty. At most half full, so memory is
  /// O(n) whatever the ids.
  std::vector<uint32_t> slots_;
  int shift_ = 64;
};

}  // namespace rankjoin

#endif  // RANKJOIN_JOIN_VERIFY_H_
