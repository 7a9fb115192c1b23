#include "join/vj.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "join/local_join.h"
#include "join/repartition.h"
#include "minispark/dataset.h"
#include "ranking/footrule.h"
#include "ranking/prefix.h"
#include "ranking/reorder.h"

namespace rankjoin {
namespace internal {

Status ValidateVjOptions(const VjOptions& options, int k) {
  if (k < 1) return Status::InvalidArgument("dataset k must be >= 1");
  if (options.theta < 0.0 || options.theta >= 1.0) {
    return Status::InvalidArgument(
        "theta must be in [0, 1); prefix filtering requires that disjoint "
        "rankings cannot qualify");
  }
  if (options.prefix_mode == PrefixMode::kOrdered) {
    if (options.reorder_by_frequency) {
      return Status::InvalidArgument(
          "the ordered prefix (Lemma 4.1) uses the original rank order and "
          "cannot be combined with frequency reordering");
    }
    if (!OrderedPrefixApplicable(RawThreshold(options.theta, k), k)) {
      return Status::InvalidArgument(
          "ordered prefix requires raw_theta < k^2/2 (paper footnote 3)");
    }
  }
  return Status::OK();
}

std::vector<OrderedRanking> OrderDataset(minispark::Context* ctx,
                                         const RankingDataset& dataset,
                                         bool reorder_by_frequency,
                                         int num_partitions) {
  // Parallelize zero-copy views over the columnar store. The views
  // borrow the store's column memory, which outlives the stages here
  // because the caller holds the dataset (and with it the store) across
  // the whole join.
  const FlatRankings& flat = dataset.store();
  minispark::Dataset<RankingView> rankings =
      minispark::Parallelize(ctx, flat.Views(), num_partitions);

  ItemOrder order;  // identity (by item id) unless reordering is on
  if (reorder_by_frequency) {
    auto item_ones = rankings.FlatMap(
        [](const RankingView& v) {
          std::vector<std::pair<ItemId, uint32_t>> out;
          out.reserve(v.k);
          for (uint32_t r = 0; r < v.k; ++r) out.push_back({v.items[r], 1});
          return out;
        },
        "vj/itemFrequency");
    auto freq = minispark::ReduceByKey(
        item_ones, [](uint32_t a, uint32_t b) { return a + b; },
        num_partitions, "vj/itemFrequency");
    std::unordered_map<ItemId, uint32_t> freq_map;
    for (const auto& [item, count] : freq.Collect()) {
      freq_map.emplace(item, count);
    }
    order = ItemOrder::FromFrequencies(freq_map);
  }

  minispark::Broadcast<ItemOrder> order_bc =
      ctx->MakeBroadcast(std::move(order), "vj/itemOrder");
  minispark::Dataset<OrderedRanking> ordered = rankings.Map(
      [order_bc](const RankingView& v) { return MakeOrdered(v, *order_bc); },
      "vj/canonicalize");
  return ordered.Collect();
}

std::vector<std::pair<ItemId, PrefixPosting>> EmitPrefix(
    const OrderedRanking& ranking, int prefix_size, PrefixMode mode,
    bool singleton) {
  std::vector<std::pair<ItemId, PrefixPosting>> out;
  out.reserve(static_cast<size_t>(prefix_size));
  ForEachPrefixEntry(ranking, mode, prefix_size,
                     [&](size_t /*t*/, const ItemEntry& e) {
                       out.push_back({e.item, PrefixPosting{ranking.id, e.rank,
                                                            singleton,
                                                            &ranking}});
                     });
  return out;
}

template <typename P>
std::vector<ScoredPair> DistributedSelfJoin(
    minispark::Context* ctx,
    const std::vector<const OrderedRanking*>& subset,
    const BasicSelfJoinSpec<typename P::Distance>& spec, JoinStats* stats) {
  using Distance = typename P::Distance;
  const int prefix_size = P::Prefix(spec.raw_theta, spec.k, spec.prefix_mode);
  const std::string& names = spec.stage_prefix;

  minispark::Dataset<const OrderedRanking*> rankings =
      minispark::Parallelize(ctx, subset, spec.num_partitions);
  auto postings = rankings.FlatMap(
      [prefix_size, mode = spec.prefix_mode](const OrderedRanking* r) {
        return EmitPrefix(*r, prefix_size, mode);
      },
      names + "selfJoin/prefix");
  minispark::Dataset<PostingGroup> groups = minispark::GroupByKey(
      postings, spec.num_partitions, names + "selfJoin/groupByItem");

  const Distance theta = spec.raw_theta;
  const bool position_filter = spec.position_filter;
  const PrefixMode mode = spec.prefix_mode;
  // Every kernel gets its list's key, so each pair is verified only in
  // the list that owns it (local_join.h GroupKey) and the pairs come
  // out distinct without a dedup shuffle.
  LocalJoinFn local_join;
  if (spec.local_algorithm == LocalAlgorithm::kPrefixIndex) {
    local_join = [theta, prefix_size, position_filter, mode](
                     ItemId item, const std::vector<PrefixPosting>& group,
                     std::vector<ScoredPair>* out, JoinStats* s) {
      PrefixIndexJoin<P>(group, theta, prefix_size, position_filter, out, s,
                         GroupKey{item, mode, prefix_size});
    };
  } else {
    local_join = [theta, prefix_size, position_filter, mode](
                     ItemId item, const std::vector<PrefixPosting>& group,
                     std::vector<ScoredPair>* out, JoinStats* s) {
      NestedLoopJoin<P>(group, UniformThreshold<Distance>{theta},
                        position_filter, out, s,
                        GroupKey{item, mode, prefix_size});
    };
  }
  // Phase-local stats: the local joins accumulate into per-partition
  // slots inside JoinGroups; collecting them into a fresh JoinStats
  // (merged into the caller's afterwards) lets this phase publish ITS
  // filter-effectiveness counters under its own scope, no matter who
  // embeds the self-join (VJ driver, CL clustering).
  JoinStats phase_stats;
  std::vector<ScoredPair> collected =
      JoinGroups(groups, std::move(local_join), &phase_stats).Collect();
  phase_stats.PublishCounters(&ctx->counters(), spec.counter_scope);
  ctx->counters().Add(spec.counter_scope + ".pairs", collected.size());
  stats->MergeCounters(phase_stats);
  return collected;
}

template <typename P>
Result<JoinResult> RunVjPipeline(minispark::Context* ctx,
                                 const RankingDataset& dataset,
                                 const VjOptions& options,
                                 const std::string& stage_prefix) {
  RANKJOIN_RETURN_NOT_OK(dataset.Validate());
  const int num_partitions = options.num_partitions > 0
                                 ? options.num_partitions
                                 : ctx->default_partitions();

  Stopwatch total;
  JoinResult result;

  Stopwatch phase;
  std::vector<OrderedRanking> ordered = OrderDataset(
      ctx, dataset, options.reorder_by_frequency, num_partitions);
  std::vector<const OrderedRanking*> all;
  all.reserve(ordered.size());
  for (const OrderedRanking& r : ordered) all.push_back(&r);
  result.stats.ordering_seconds = phase.ElapsedSeconds();

  phase.Reset();
  BasicSelfJoinSpec<typename P::Distance> spec;
  spec.raw_theta = P::Threshold(options.theta, dataset.k);
  spec.k = dataset.k;
  spec.num_partitions = num_partitions;
  spec.position_filter = options.position_filter;
  spec.prefix_mode = options.prefix_mode;
  spec.local_algorithm = options.local_algorithm;
  spec.counter_scope = options.counter_scope;
  spec.stage_prefix = stage_prefix;
  std::vector<ScoredPair> scored =
      DistributedSelfJoin<P>(ctx, all, spec, &result.stats);
  result.stats.joining_seconds = phase.ElapsedSeconds();

  result.pairs.reserve(scored.size());
  for (const ScoredPair& sp : scored) result.pairs.push_back(sp.first);
  result.stats.result_pairs = result.pairs.size();
  result.stats.total_seconds = total.ElapsedSeconds();
  ctx->counters().Add(options.counter_scope + ".result_pairs",
                      result.stats.result_pairs);
  return result;
}

#define RANKJOIN_INSTANTIATE_VJ(P)                                        \
  template std::vector<ScoredPair> DistributedSelfJoin<P>(                \
      minispark::Context*, const std::vector<const OrderedRanking*>&,     \
      const BasicSelfJoinSpec<P::Distance>&, JoinStats*);                 \
  template Result<JoinResult> RunVjPipeline<P>(                           \
      minispark::Context*, const RankingDataset&, const VjOptions&,       \
      const std::string&);

RANKJOIN_INSTANTIATE_VJ(FootrulePolicy)
RANKJOIN_INSTANTIATE_VJ(JaccardPolicy)

#undef RANKJOIN_INSTANTIATE_VJ

}  // namespace internal

Result<JoinResult> RunVjJoin(minispark::Context* ctx,
                             const RankingDataset& dataset,
                             const VjOptions& options) {
  // A Cancel()/deadline stop anywhere inside unwinds here as a Status.
  return minispark::StopAware([&]() -> Result<JoinResult> {
    RANKJOIN_RETURN_NOT_OK(internal::ValidateVjOptions(options, dataset.k));
    return internal::RunVjPipeline<FootrulePolicy>(ctx, dataset, options,
                                                   "");
  });
}

}  // namespace rankjoin
