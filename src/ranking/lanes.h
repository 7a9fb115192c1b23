#ifndef RANKJOIN_RANKING_LANES_H_
#define RANKJOIN_RANKING_LANES_H_

#include <cstddef>
#include <cstdint>

#include "ranking/ranking.h"

namespace rankjoin {

/// The one kernel behind Footrule and Jaccard verification. It compares
/// two verification records (OrderedRanking::lanes: items in rank order,
/// so a lane's index is its rank) and sums a weight over the shared items:
///
///   kShared:   1 per shared item, so the sum is |a ∩ b| (Jaccard);
///   kFootrule: k − max(rank_a(x), rank_b(x)) per shared item x.
///
/// For Footrule, an item costs k − rank in every list it is missing from
/// and |r_a − r_b| when shared, and (k − r_a) + (k − r_b) − |r_a − r_b|
/// = 2(k − max(r_a, r_b)), so over two top-k bijections
///
///   F(a, b) = k(k+1) − 2 · (kFootrule sum)   (exact).
enum class LaneWeight { kShared, kFootrule };

/// Records of up to this many lanes go through the block kernel, which
/// compares every item of `a` with every lane of `b` (O(k²) compares, a
/// quarter of them per SIMD compare). Longer rankings go through
/// WeighLanesSorted.
inline constexpr size_t kMaxBlockLanes = 32;

namespace internal {

/// Portable block kernel over two records of k items (b's pad lanes are
/// not read). The SSE2 kernel's reference, and the kernel where SSE2 is
/// not available; exact for any k.
uint32_t WeighLanesScalar(const ItemId* a, const ItemId* b, uint32_t k,
                          LaneWeight weight);

/// O(k log k) kernel for long rankings: sorts (item, rank) copies of both
/// records in thread-local scratch and merges them. Exact.
uint32_t WeighLanesSorted(const ItemId* a, const ItemId* b, uint32_t k,
                          LaneWeight weight);

#if defined(__SSE2__)
/// SSE2 block kernel for k ≤ kMaxBlockLanes. Each item a[i] is broadcast
/// and compared with every lane vector of b, and the match masks pick
/// row i of a weight table whose pad lanes are 0; the sum has no branch
/// on the items. With need > 0 (kFootrule only) it also tests, after
/// every item from the first one at which a pair can fail, whether the
/// sum so far plus the most the remaining items can add still reaches
/// `need`, and if not returns the sum so far (below `need`). Most
/// candidate pairs fail at one of the first tests.
uint32_t WeighLanesSse2(const ItemId* a, const ItemId* b, uint32_t k,
                        LaneWeight weight, uint32_t need);
#endif

}  // namespace internal

/// The weight sum of the verification records of two rankings of equal
/// k (see LaneWeight). Exact when it is at least `need`; a pair that
/// cannot reach `need` may stop early and return any value below it.
inline uint32_t WeighLanes(const OrderedRanking& a, const OrderedRanking& b,
                           LaneWeight weight, uint32_t need = 0) {
  const ItemId* x = a.lanes.data();
  const ItemId* y = b.lanes.data();
  if (a.k > kMaxBlockLanes) {
    return internal::WeighLanesSorted(x, y, a.k, weight);
  }
#if defined(__SSE2__)
  return internal::WeighLanesSse2(x, y, a.k, weight, need);
#else
  (void)need;
  return internal::WeighLanesScalar(x, y, a.k, weight);
#endif
}

}  // namespace rankjoin

#endif  // RANKJOIN_RANKING_LANES_H_
