#include "join/cluster_join.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "join/cluster.h"
#include "join/stat_slots.h"
#include "join/verify.h"
#include "minispark/dataset.h"
#include "ranking/footrule.h"

namespace rankjoin {
namespace internal {

Status ValidateClOptions(const ClOptions& options, int k) {
  if (k < 1) return Status::InvalidArgument("dataset k must be >= 1");
  if (options.theta < 0.0 || options.theta >= 1.0) {
    return Status::InvalidArgument("theta must be in [0, 1)");
  }
  if (options.theta_c < 0.0) {
    return Status::InvalidArgument("theta_c must be >= 0");
  }
  if (options.theta_c > options.theta) {
    return Status::InvalidArgument(
        "theta_c must not exceed theta: cluster members are results "
        "themselves, so a larger clustering threshold would emit "
        "non-qualifying pairs");
  }
  const uint32_t enlarged = RawThreshold(options.theta, k) +
                            2 * RawThreshold(options.theta_c, k);
  if (enlarged >= MaxFootrule(k)) {
    return Status::InvalidArgument(
        "theta + 2*theta_c reaches the disjoint-pair distance; prefix "
        "filtering in the joining phase would be incomplete");
  }
  return Status::OK();
}

}  // namespace internal

namespace {

/// (member id, distance to its centroid) — the value type of the
/// cluster dataset keyed by centroid.
template <typename Distance>
using MemberRec = std::pair<RankingId, Distance>;

/// Shared context for the expansion kernels.
template <typename P>
struct ExpansionContext {
  const RankingTable* table = nullptr;
  typename P::Distance theta{};
  bool upper_shortcut = true;
};

/// Processes one (candidate pair, known-distance bounds) according to
/// the metric filters of Section 5.3: prune when the triangle lower
/// bound exceeds theta, emit unverified when the upper bound already
/// qualifies, verify otherwise.
template <typename P>
void EmitWithTriangleBounds(const ExpansionContext<P>& ectx, RankingId a,
                            RankingId b, typename P::Bound lower_bound,
                            typename P::Bound upper_bound,
                            std::vector<ResultPair>* out, JoinStats* stats) {
  if (a == b) return;
  if (P::Exceeds(lower_bound, ectx.theta)) {
    ++stats->triangle_filtered;
    return;
  }
  if (ectx.upper_shortcut && P::Guaranteed(upper_bound, ectx.theta)) {
    ++stats->emitted_unverified;
    out->push_back(MakeResultPair(a, b));
    return;
  }
  if (P::Verify(ectx.table->Get(a), ectx.table->Get(b), ectx.theta, stats)
          .has_value()) {
    out->push_back(MakeResultPair(a, b));
  }
}

/// Keeps only each member's closest cluster pair (ties by smaller
/// centroid id). Centroid/singleton classifications are left untouched:
/// a centroid whose cluster empties stays a (conservatively thresholded)
/// non-singleton centroid in the joining phase, which preserves
/// completeness. Direct (centroid, member) results dropped here are
/// recovered through the joining phase — the member's retained centroid
/// is within 2*theta_c of the dropped one, so their centroid pair is in
/// R_j and the member-centroid candidate reappears in the expansion.
template <typename Distance>
void ResolveOverlaps(BasicClustering<Distance>* clustering) {
  std::unordered_map<RankingId, size_t> best;
  best.reserve(clustering->pairs.size());
  for (size_t idx = 0; idx < clustering->pairs.size(); ++idx) {
    const auto& cp = clustering->pairs[idx];
    auto [it, inserted] = best.try_emplace(cp.member, idx);
    if (inserted) continue;
    const auto& incumbent = clustering->pairs[it->second];
    if (cp.distance < incumbent.distance ||
        (cp.distance == incumbent.distance &&
         cp.centroid < incumbent.centroid)) {
      it->second = idx;
    }
  }
  std::vector<BasicClusterPair<Distance>> kept;
  kept.reserve(best.size());
  for (size_t idx = 0; idx < clustering->pairs.size(); ++idx) {
    auto it = best.find(clustering->pairs[idx].member);
    if (it != best.end() && it->second == idx) {
      kept.push_back(clustering->pairs[idx]);
    }
  }
  clustering->pairs = std::move(kept);
}

/// Expansion phase (paper Section 5.3 / Algorithm 2): combines the
/// joining-phase centroid pairs R_j with the clustering-phase tuples R_c
/// to produce the final result set.
template <typename P>
std::vector<ResultPair> RunExpansion(
    minispark::Context* ctx, const RankingTable& table,
    const BasicClustering<typename P::Distance>& clustering,
    const std::vector<BasicCentroidPair<typename P::Distance>>& rj,
    typename P::Distance theta, int num_partitions, bool upper_shortcut,
    const std::string& counter_scope, const std::string& names,
    JoinStats* stats) {
  using Distance = typename P::Distance;
  using Bound = typename P::Bound;
  using Member = MemberRec<Distance>;
  using CPair = BasicCentroidPair<Distance>;
  const ExpansionContext<P> ectx{&table, theta, upper_shortcut};
  // All expansion kernels below tally into this phase-local accumulator
  // (via per-partition slot vectors merged after each Force() barrier);
  // it is merged into the caller's stats AND published to the counter
  // registry under "<scope>.expansion" at the end, so traces show the
  // triangle-inequality prune/shortcut effectiveness of Section 5.3 in
  // isolation.
  JoinStats expansion_stats;

  // R_c keyed by centroid.
  std::vector<std::pair<RankingId, Member>> cluster_kv;
  cluster_kv.reserve(clustering.pairs.size());
  for (const auto& cp : clustering.pairs) {
    cluster_kv.push_back({cp.centroid, {cp.member, cp.distance}});
  }
  // The cluster-membership dataset is consumed by three wide operations
  // below (groupClusters and both membership joins) — pin it so it
  // materializes exactly once.
  minispark::Dataset<std::pair<RankingId, Member>> clusters =
      minispark::Parallelize(ctx, std::move(cluster_kv), num_partitions);
  clusters.Cache();

  minispark::Dataset<CPair> rj_ds =
      minispark::Parallelize(ctx, rj, num_partitions);

  // Direct results: R_s (both singleton, emitted as-is — their join
  // threshold was theta) plus every centroid pair within theta.
  minispark::Dataset<ResultPair> direct = rj_ds.FlatMap(
      [theta](const CPair& cp) {
        std::vector<ResultPair> out;
        if (P::Within(cp.distance, theta)) {
          out.push_back(MakeResultPair(cp.ci, cp.cj));
        }
        return out;
      },
      names + "expand/direct");

  // Intra-cluster results: (centroid, member) pairs qualify outright
  // (distance <= theta_c <= theta); member-member pairs are within
  // 2*theta_c by the triangle inequality and are emitted unverified when
  // the known distance sum already proves qualification.
  minispark::Dataset<std::pair<RankingId, std::vector<Member>>>
      grouped_clusters = minispark::GroupByKey(
          clusters, num_partitions, names + "expand/groupClusters");
  minispark::Dataset<ResultPair> intra = MapPartitionsWithStats(
      grouped_clusters,
      [ectx](const std::vector<std::pair<RankingId, std::vector<Member>>>&
                 part,
             JoinStats* local) {
        std::vector<ResultPair> out;
        for (const auto& [centroid, members] : part) {
          for (const Member& m : members) {
            out.push_back(MakeResultPair(centroid, m.first));
          }
          for (size_t i = 0; i + 1 < members.size(); ++i) {
            for (size_t j = i + 1; j < members.size(); ++j) {
              const Bound sum = static_cast<Bound>(members[i].second) +
                                static_cast<Bound>(members[j].second);
              EmitWithTriangleBounds(ectx, members[i].first, members[j].first,
                                     /*lower_bound=*/Bound{0}, sum, &out,
                                     local);
            }
          }
        }
        return out;
      },
      names + "expand/intraCluster", &expansion_stats);

  // R_m: centroid pairs with at least one non-singleton side need to be
  // joined with the clusters (Algorithm 2 lines 3-8).
  minispark::Dataset<CPair> rm = rj_ds.Filter(
      [](const CPair& cp) { return !(cp.ci_singleton && cp.cj_singleton); },
      names + "expand/filterRm");
  // R_m feeds both directional re-keyings — materialize the filter once.
  rm.Cache();

  minispark::Dataset<std::pair<RankingId, CPair>> rm_by_ci = rm.Map(
      [](const CPair& cp) { return std::pair<RankingId, CPair>(cp.ci, cp); },
      names + "expand/keyByCi");
  minispark::Dataset<std::pair<RankingId, CPair>> rm_by_cj = rm.Map(
      [](const CPair& cp) { return std::pair<RankingId, CPair>(cp.cj, cp); },
      names + "expand/keyByCj");

  // One membership direction of R_m,c: members of one centroid against
  // the OTHER centroid of the pair, bounded by |d(ci,cj) - d(c,m)| and
  // d(ci,cj) + d(c,m).
  using Joined = std::pair<RankingId, std::pair<CPair, Member>>;
  auto expand_members = [&](const minispark::Dataset<Joined>& joined,
                            bool against_cj, const std::string& name) {
    return MapPartitionsWithStats(
        joined,
        [ectx, against_cj](const std::vector<Joined>& part, JoinStats* local) {
          std::vector<ResultPair> out;
          for (const auto& [centroid, rec] : part) {
            const CPair& cp = rec.first;
            const Member& m = rec.second;
            const Bound dij = static_cast<Bound>(cp.distance);
            const Bound dm = static_cast<Bound>(m.second);
            EmitWithTriangleBounds(ectx, m.first, against_cj ? cp.cj : cp.ci,
                                   std::abs(dij - dm), dij + dm, &out, local);
          }
          return out;
        },
        name, &expansion_stats);
  };

  // Members of ci against cj (R_m,c, first direction).
  auto j1 = minispark::Join(rm_by_ci, clusters, num_partitions,
                            names + "expand/joinMembersCi");
  minispark::Dataset<ResultPair> rm_c1 =
      expand_members(j1, /*against_cj=*/true, names + "expand/membersCi");

  // Members of cj against ci (R_m,c, second direction — the "switched
  // centroids" join of Example 5.4).
  auto j2 = minispark::Join(rm_by_cj, clusters, num_partitions,
                            names + "expand/joinMembersCj");
  minispark::Dataset<ResultPair> rm_c2 =
      expand_members(j2, /*against_cj=*/false, names + "expand/membersCj");

  // Members of ci against members of cj (R_m,m): re-key the first join
  // by the second centroid and join with the clusters again.
  minispark::Dataset<Joined> j1_by_cj = j1.Map(
      [](const Joined& rec) {
        return Joined(rec.second.first.cj, rec.second);
      },
      names + "expand/rekeyByCj");
  auto jmm = minispark::Join(j1_by_cj, clusters, num_partitions,
                             names + "expand/joinMembersBoth");
  minispark::Dataset<ResultPair> rm_m = MapPartitionsWithStats(
      jmm,
      [ectx](const std::vector<std::pair<
                 RankingId, std::pair<std::pair<CPair, Member>, Member>>>& part,
             JoinStats* local) {
        std::vector<ResultPair> out;
        for (const auto& [cj, rec] : part) {
          const CPair& cp = rec.first.first;
          const Member& mi = rec.first.second;  // member of ci
          const Member& mj = rec.second;        // member of cj
          const Bound dij = static_cast<Bound>(cp.distance);
          const Bound lower = dij - static_cast<Bound>(mi.second) -
                              static_cast<Bound>(mj.second);
          const Bound upper = dij + static_cast<Bound>(mi.second) +
                              static_cast<Bound>(mj.second);
          EmitWithTriangleBounds(ectx, mi.first, mj.first, lower, upper,
                                 &out, local);
        }
        return out;
      },
      names + "expand/membersBoth", &expansion_stats);

  // Union everything and remove duplicates (Algorithm 2 line 9).
  minispark::Dataset<ResultPair> all = minispark::Union(
      minispark::Union(
          minispark::Union(direct, intra, names + "expand/u1"),
          minispark::Union(rm_c1, rm_c2, names + "expand/u2"),
          names + "expand/u3"),
      rm_m, names + "expand/u4");
  std::vector<ResultPair> collected =
      minispark::Distinct(all, num_partitions, names + "expand/distinct")
          .Collect();
  expansion_stats.PublishCounters(&ctx->counters(),
                                  counter_scope + ".expansion");
  ctx->counters().Add(counter_scope + ".expansion.result_pairs",
                      collected.size());
  stats->MergeCounters(expansion_stats);
  return collected;
}

}  // namespace

namespace internal {

template <typename P>
Result<JoinResult> RunClusterPipeline(minispark::Context* ctx,
                                      const RankingDataset& dataset,
                                      const ClOptions& options,
                                      const std::string& counter_scope,
                                      const std::string& stage_prefix) {
  using Distance = typename P::Distance;
  RANKJOIN_RETURN_NOT_OK(dataset.Validate());
  const int num_partitions = options.num_partitions > 0
                                 ? options.num_partitions
                                 : ctx->default_partitions();
  const Distance theta = P::Threshold(options.theta, dataset.k);
  const Distance theta_c = P::Threshold(options.theta_c, dataset.k);

  Stopwatch total;
  JoinResult result;

  // Phase 1: Ordering (once, reused by both joins — Section 5).
  Stopwatch phase;
  std::vector<OrderedRanking> ordered = OrderDataset(
      ctx, dataset, options.reorder_by_frequency, num_partitions);
  RankingTable table(ordered);
  std::vector<const OrderedRanking*> all;
  all.reserve(ordered.size());
  for (const OrderedRanking& r : ordered) all.push_back(&r);
  result.stats.ordering_seconds = phase.ElapsedSeconds();

  // Phase 2: Clustering with theta_c.
  phase.Reset();
  BasicClustering<Distance> clustering;
  bool clustered = false;
  if constexpr (std::is_same_v<P, FootrulePolicy>) {
    if (options.clustering_strategy == ClusteringStrategy::kRandomCentroids) {
      const int centroids =
          options.random_centroids > 0
              ? options.random_centroids
              : std::max(1, static_cast<int>(all.size() / 10));
      clustering = RunRandomCentroidClustering(
          ctx, all, centroids, theta_c, options.random_centroid_seed,
          &result.stats);
      clustered = true;
    }
  }
  if (!clustered) {
    BasicSelfJoinSpec<Distance> cluster_spec;
    cluster_spec.raw_theta = theta_c;
    cluster_spec.k = dataset.k;
    cluster_spec.num_partitions = num_partitions;
    cluster_spec.position_filter = options.position_filter;
    cluster_spec.prefix_mode = PrefixMode::kOverlap;
    cluster_spec.local_algorithm = options.clustering_algorithm;
    cluster_spec.counter_scope = counter_scope + ".clustering";
    cluster_spec.stage_prefix = stage_prefix;
    clustering =
        RunClusteringPhase<P>(ctx, all, cluster_spec, &result.stats);
  }
  result.stats.clustering_seconds = phase.ElapsedSeconds();

  // Phase 3: Joining the centroids (Algorithm 1).
  phase.Reset();
  BasicCentroidJoinSpec<Distance> join_spec;
  join_spec.raw_theta = theta;
  join_spec.raw_theta_c = theta_c;
  join_spec.k = dataset.k;
  join_spec.num_partitions = num_partitions;
  join_spec.position_filter = options.position_filter;
  join_spec.singleton_optimization = options.singleton_optimization;
  join_spec.repartition_delta = options.repartition_delta;
  join_spec.counter_scope = counter_scope + ".centroidJoin";
  join_spec.stage_prefix = stage_prefix;
  std::vector<BasicCentroidPair<Distance>> rj =
      RunCentroidJoin<P>(ctx, table, clustering.centroids,
                         clustering.singletons, join_spec, &result.stats);
  result.stats.joining_seconds = phase.ElapsedSeconds();

  // Phase 4: Expansion (Algorithm 2).
  phase.Reset();
  if (options.resolve_overlaps) {
    ResolveOverlaps(&clustering);
    result.stats.cluster_members = clustering.pairs.size();
  }
  result.pairs = RunExpansion<P>(ctx, table, clustering, rj, theta,
                                 num_partitions,
                                 options.triangle_upper_shortcut,
                                 counter_scope, stage_prefix, &result.stats);
  result.stats.expansion_seconds = phase.ElapsedSeconds();

  result.stats.result_pairs = result.pairs.size();
  result.stats.total_seconds = total.ElapsedSeconds();
  ctx->counters().Add(counter_scope + ".result_pairs",
                      result.stats.result_pairs);
  return result;
}

template Result<JoinResult> RunClusterPipeline<FootrulePolicy>(
    minispark::Context*, const RankingDataset&, const ClOptions&,
    const std::string&, const std::string&);
template Result<JoinResult> RunClusterPipeline<JaccardPolicy>(
    minispark::Context*, const RankingDataset&, const ClOptions&,
    const std::string&, const std::string&);

}  // namespace internal

Result<JoinResult> RunClusterJoin(minispark::Context* ctx,
                                  const RankingDataset& dataset,
                                  const ClOptions& options) {
  // A Cancel()/deadline stop anywhere inside unwinds here as a Status.
  return minispark::StopAware([&]() -> Result<JoinResult> {
    RANKJOIN_RETURN_NOT_OK(internal::ValidateClOptions(options, dataset.k));
    return internal::RunClusterPipeline<FootrulePolicy>(ctx, dataset,
                                                        options, "cl", "");
  });
}

}  // namespace rankjoin
