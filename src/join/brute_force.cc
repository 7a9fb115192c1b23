#include "join/brute_force.h"

#include "common/stopwatch.h"
#include "join/distance_policy.h"
#include "ranking/reorder.h"

namespace rankjoin {
namespace internal {

template <typename P>
JoinResult BruteForcePipeline(const RankingDataset& dataset, double theta) {
  Stopwatch watch;
  JoinResult result;
  const typename P::Distance threshold = P::Threshold(theta, dataset.k);

  // The identity ordering is fine: brute force reads only the
  // verification records (`lanes`), which do not depend on the order.
  // Ordering off the columnar store covers mmap-born datasets whose
  // Ranking vector is empty.
  const ItemOrder order;
  std::vector<OrderedRanking> ordered =
      MakeOrderedDataset(dataset.store(), order);

  const size_t n = ordered.size();
  for (size_t i = 0; i + 1 < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      ++result.stats.candidates;
      if (P::Verify(ordered[i], ordered[j], threshold, &result.stats)) {
        result.pairs.push_back(MakeResultPair(ordered[i].id, ordered[j].id));
      }
    }
  }
  result.stats.result_pairs = result.pairs.size();
  result.stats.total_seconds = watch.ElapsedSeconds();
  result.stats.joining_seconds = result.stats.total_seconds;
  return result;
}

template JoinResult BruteForcePipeline<FootrulePolicy>(const RankingDataset&,
                                                       double);
template JoinResult BruteForcePipeline<JaccardPolicy>(const RankingDataset&,
                                                      double);

}  // namespace internal

JoinResult BruteForceJoin(const RankingDataset& dataset, double theta) {
  return internal::BruteForcePipeline<FootrulePolicy>(dataset, theta);
}

}  // namespace rankjoin
