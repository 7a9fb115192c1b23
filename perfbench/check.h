#ifndef RANKJOIN_PERFBENCH_CHECK_H_
#define RANKJOIN_PERFBENCH_CHECK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "join/stats.h"
#include "ranking/ranking.h"

namespace rankjoin::perfbench {

/// Output check of the benchmark. It runs outside every timed region and
/// judges the pair file a join wrote, the way a user of the program would
/// receive it, against the raw rankings and the public Footrule distance.

/// Parses a result file of "id1 id2" lines (the WriteResultPairs format)
/// without reordering or deduplicating anything.
Result<std::vector<ResultPair>> ReadPairFile(const std::string& path);

/// Every pair has the smaller id first and the pairs are strictly
/// increasing, so the list is sorted and holds no duplicate.
Status CheckPairOrder(const std::vector<ResultPair>& pairs);

/// Order-sensitive 64-bit FNV-1a digest of a pair list.
uint64_t PairDigest(const std::vector<ResultPair>& pairs);

/// The rankings of a dataset indexed by id (ids may be sparse).
class RankingIndex {
 public:
  explicit RankingIndex(const RankingDataset& dataset);
  /// Null when no ranking has this id.
  const Ranking* Find(RankingId id) const;
  const RankingDataset& dataset() const { return *dataset_; }

 private:
  const RankingDataset* dataset_;
  std::vector<const Ranking*> by_id_;
};

/// Every pair names two rankings of the input whose Footrule distance is
/// at most `raw_theta` (soundness: no extra pair).
Status CheckPairDistances(const RankingIndex& index,
                          const std::vector<ResultPair>& pairs,
                          uint32_t raw_theta);

/// Picks `count` anchor rankings from a seed: half uniformly from the
/// input, half from the pair endpoints (so anchors with partners are
/// present even when few rankings have one). Sorted, without repeats;
/// every ranking when `count` reaches the input size.
std::vector<RankingId> SampleAnchors(const RankingDataset& dataset,
                                     const std::vector<ResultPair>& pairs,
                                     size_t count, uint64_t seed);

/// For every anchor, brute-forces its partners within `raw_theta` over
/// the whole input and requires exactly those partners in `pairs`
/// (completeness on the sample: no dropped pair).
Status CheckAnchors(const RankingIndex& index,
                    const std::vector<ResultPair>& pairs, uint32_t raw_theta,
                    const std::vector<RankingId>& anchors);

}  // namespace rankjoin::perfbench

#endif  // RANKJOIN_PERFBENCH_CHECK_H_
