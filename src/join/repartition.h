#ifndef RANKJOIN_JOIN_REPARTITION_H_
#define RANKJOIN_JOIN_REPARTITION_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "join/local_join.h"
#include "join/stats.h"
#include "minispark/dataset.h"

namespace rankjoin {

/// One posting list after the prefix flat-map + groupByKey: the key item
/// and the rankings whose prefix contains it.
using PostingGroup = std::pair<ItemId, std::vector<PrefixPosting>>;

/// Self-join kernel applied to one posting list (or one sub-partition
/// of it), given the list's key item.
using LocalJoinFn =
    std::function<void(ItemId, const std::vector<PrefixPosting>&,
                       std::vector<ScoredPair>*, JoinStats*)>;

/// R-S join kernel applied to a pair of sub-partitions of one list,
/// given the list's key item.
using LocalRsJoinFn = std::function<void(
    ItemId, const std::vector<PrefixPosting>&,
    const std::vector<PrefixPosting>&, std::vector<ScoredPair>*,
    JoinStats*)>;

/// Runs `local_join` over every posting group (the plain VJ reduce step).
/// Per-partition statistics are merged into `stats`.
minispark::Dataset<ScoredPair> JoinGroups(
    const minispark::Dataset<PostingGroup>& groups, LocalJoinFn local_join,
    JoinStats* stats);

/// Algorithm 3 of the paper: posting lists with more than `delta`
/// rankings are split into sub-partitions of at most `delta` elements,
/// each carrying a secondary key. Every sub-partition is self-joined
/// with `local_join`, and every pair of sub-partitions of the same list
/// is joined with `rs_join` after a Spark-style self-join on the item
/// id. Sub-partition work is spread over `num_partitions * 2` partitions
/// (the paper increases the partition count to redistribute load).
/// Every pair of a split list meets in exactly one chunk join, so a
/// kernel that verifies each pair once per list still does after the
/// split.
///
/// The posting groups are materialized and measured first. When no list
/// exceeds delta, the split stages are skipped and the groups are
/// joined directly; otherwise lists of size <= delta take the plain
/// JoinGroups kernel. Either way the "repartition.lists_split" and
/// "repartition.chunk_pair_joins" counters are published (0 when nothing
/// splits). With delta == 0 this is JoinGroups exactly.
minispark::Dataset<ScoredPair> JoinGroupsWithRepartitioning(
    const minispark::Dataset<PostingGroup>& groups, uint64_t delta,
    int num_partitions, LocalJoinFn local_join, LocalRsJoinFn rs_join,
    JoinStats* stats);

}  // namespace rankjoin

#endif  // RANKJOIN_JOIN_REPARTITION_H_
