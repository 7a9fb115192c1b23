#ifndef RANKJOIN_JOIN_BRUTE_FORCE_H_
#define RANKJOIN_JOIN_BRUTE_FORCE_H_

#include "join/stats.h"
#include "ranking/ranking.h"

namespace rankjoin {

/// Exact O(n^2) reference join: computes the bounded Footrule distance
/// for every pair. Single-threaded and index-free — the ground truth the
/// test suite checks every distributed algorithm against.
///
/// `theta` is the normalized threshold in [0, 1].
JoinResult BruteForceJoin(const RankingDataset& dataset, double theta);

namespace internal {
/// The brute-force join under distance policy `P` (distance_policy.h);
/// BruteForceJoin is the FootrulePolicy instance.
template <typename P>
JoinResult BruteForcePipeline(const RankingDataset& dataset, double theta);
}  // namespace internal

}  // namespace rankjoin

#endif  // RANKJOIN_JOIN_BRUTE_FORCE_H_
