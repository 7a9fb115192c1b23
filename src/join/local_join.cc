#include "join/local_join.h"

#include "join/distance_policy.h"

namespace rankjoin {

void LocalPrefixJoin(const std::vector<PrefixPosting>& group,
                     const LocalJoinOptions& options,
                     std::vector<ScoredPair>* out, JoinStats* stats) {
  PrefixIndexJoin<FootrulePolicy>(group, options.raw_theta,
                                  options.prefix_size,
                                  options.position_filter, out, stats);
}

void LocalNestedLoopJoin(const std::vector<PrefixPosting>& group,
                         const LocalJoinOptions& options,
                         std::vector<ScoredPair>* out, JoinStats* stats) {
  NestedLoopJoin<FootrulePolicy>(
      group, UniformThreshold<uint32_t>{options.raw_theta},
      options.position_filter, out, stats);
}

void LocalNestedLoopJoinRS(const std::vector<PrefixPosting>& left,
                           const std::vector<PrefixPosting>& right,
                           const LocalJoinOptions& options,
                           std::vector<ScoredPair>* out, JoinStats* stats) {
  NestedLoopJoinRS<FootrulePolicy>(
      left, right, UniformThreshold<uint32_t>{options.raw_theta},
      options.position_filter, out, stats);
}

}  // namespace rankjoin
