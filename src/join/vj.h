#ifndef RANKJOIN_JOIN_VJ_H_
#define RANKJOIN_JOIN_VJ_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "join/distance_policy.h"
#include "join/stats.h"
#include "minispark/context.h"
#include "ranking/ranking.h"

namespace rankjoin {

/// Per-posting-list join kernel (paper Sections 4 and 4.1).
enum class LocalAlgorithm {
  /// Inverted-index prefix join per group (VJ).
  kPrefixIndex,
  /// Iterator-style nested loop with the position filter (VJ-NL).
  kNestedLoop,
};

/// Configuration of the VJ adaptation to top-k rankings.
struct VjOptions {
  /// Normalized distance threshold in [0, 1).
  double theta = 0.1;
  /// Shuffle partitions; -1 uses the context default.
  int num_partitions = -1;
  /// Apply the rank-difference position filter.
  bool position_filter = true;
  /// Reorder items by ascending global frequency before prefixing
  /// (paper: major gains on skewed data; implies overlap prefixes).
  bool reorder_by_frequency = true;
  PrefixMode prefix_mode = PrefixMode::kOverlap;
  LocalAlgorithm local_algorithm = LocalAlgorithm::kPrefixIndex;
  /// Namespace for the filter-effectiveness counters the pipeline
  /// publishes into Context::counters() (trace_level >= kCounters):
  /// "<scope>.candidates", "<scope>.verified", ... VJ-NL overrides this
  /// to "vj_nl" so the two variants stay distinguishable in one trace.
  std::string counter_scope = "vj";
};

/// Runs the Vernica-Join adaptation for top-k rankings (paper Section 4)
/// as a minispark pipeline: frequency ordering, prefix flat-map,
/// group-by-item, per-group local join. Each pair is verified only in
/// the posting list that owns it (local_join.h GroupKey), so the pairs
/// come out distinct without the paper's final distinct.
Result<JoinResult> RunVjJoin(minispark::Context* ctx,
                             const RankingDataset& dataset,
                             const VjOptions& options);

namespace internal {

/// Validates option/threshold combinations shared by the pipelines.
Status ValidateVjOptions(const VjOptions& options, int k);

/// Ordering phase: counts item frequencies and produces the canonical
/// per-ranking representation, all as dataflow stages. Returns rankings
/// in input order; stage metrics accumulate into the context.
std::vector<OrderedRanking> OrderDataset(minispark::Context* ctx,
                                         const RankingDataset& dataset,
                                         bool reorder_by_frequency,
                                         int num_partitions);

/// Emits (prefix item, posting) pairs for the first `prefix_size`
/// entries of `ranking` under `mode`; `singleton` tags the postings for
/// the CL centroid join.
std::vector<std::pair<ItemId, PrefixPosting>> EmitPrefix(
    const OrderedRanking& ranking, int prefix_size, PrefixMode mode,
    bool singleton = false);

/// Spec for a distributed prefix-filter self-join over already-ordered
/// rankings (reused by the CL clustering phase, which joins the whole
/// dataset with theta_c, and by the VJ driver). `Distance` is the
/// distance policy's threshold type (raw Footrule or Jaccard).
template <typename Distance>
struct BasicSelfJoinSpec {
  Distance raw_theta{};
  int k = 0;
  int num_partitions = 1;
  bool position_filter = true;
  PrefixMode prefix_mode = PrefixMode::kOverlap;
  LocalAlgorithm local_algorithm = LocalAlgorithm::kPrefixIndex;
  /// Counter namespace (see VjOptions::counter_scope); the CL clustering
  /// phase sets its own scope here.
  std::string counter_scope = "selfJoin";
  /// Prepended to every stage name, so a second distance's pipelines
  /// stay distinguishable in traces and ExplainDot ("" for Footrule).
  std::string stage_prefix;
};

using SelfJoinSpec = BasicSelfJoinSpec<uint32_t>;

/// Distributed self-join over `subset` (pointers must stay valid for the
/// duration of the call) under distance policy `P`. Returns the distinct
/// scored pairs within spec.raw_theta.
template <typename P = FootrulePolicy>
std::vector<ScoredPair> DistributedSelfJoin(
    minispark::Context* ctx,
    const std::vector<const OrderedRanking*>& subset,
    const BasicSelfJoinSpec<typename P::Distance>& spec, JoinStats* stats);

/// The VJ driver under distance policy `P`: ordering, the distributed
/// self-join with `options.theta`, result collection. `options` must
/// already be validated; `stage_prefix` as in BasicSelfJoinSpec.
template <typename P>
Result<JoinResult> RunVjPipeline(minispark::Context* ctx,
                                 const RankingDataset& dataset,
                                 const VjOptions& options,
                                 const std::string& stage_prefix);

}  // namespace internal
}  // namespace rankjoin

#endif  // RANKJOIN_JOIN_VJ_H_
