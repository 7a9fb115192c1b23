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

/// Shared context for the expansion kernel.
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

/// A ranking in one cluster: its id, its distance to the cluster's
/// representative, and its home cluster (the smallest cluster holding
/// it, docs/ALGORITHMS.md §5).
template <typename Distance>
struct Member {
  RankingId id = 0;
  Distance distance{};
  RankingId home = 0;
};

/// One unit of expansion work: the centroid-join pair (x, y), x < y, at
/// `distance`, or, with x == y, the pairs inside cluster x. The members
/// of x and y are at x_slot and y_slot of the broadcast member lists.
template <typename Distance>
struct ExpandItem {
  Member<Distance> x;
  Member<Distance> y;
  Distance distance{};
  uint32_t x_slot = 0;
  uint32_t y_slot = 0;
};

/// Expansion phase (paper Section 5.3 / Algorithm 2): combines the
/// joining-phase centroid pairs R_j with the clustering-phase tuples R_c
/// to produce the final result set, in one narrow pass. Clusters
/// overlap, so a pair can be reached through several cluster pairs; it
/// is emitted only from its owner, the pair of the two rankings' home
/// clusters, which is in R_j whenever the pair qualifies (or is one
/// cluster). Every other route counts it as `owner_skipped`, so each
/// pair is verified at most once and no distinct is needed.
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
  using Mem = Member<Distance>;
  using Item = ExpandItem<Distance>;
  const ExpansionContext<P> ectx{&table, theta, upper_shortcut};

  // Home clusters. A ranking in no membership is a centroid or a
  // singleton and its own home; a member's home is the smallest cluster
  // it belongs to, its own one included when it is also a centroid.
  std::unordered_map<RankingId, RankingId> home;
  for (const auto& cp : clustering.pairs) {
    auto [it, inserted] = home.try_emplace(cp.member, cp.centroid);
    if (!inserted) it->second = std::min(it->second, cp.centroid);
  }
  for (RankingId c : clustering.centroids) {
    if (auto it = home.find(c); it != home.end()) {
      it->second = std::min(it->second, c);
    }
  }
  auto representative = [&home](RankingId r) {
    const auto it = home.find(r);
    return Mem{r, Distance{}, it == home.end() ? r : it->second};
  };

  // The membership index: the members of each cluster, by slot, with
  // slot 0 left empty for the representatives without members. Each
  // cluster with members also gets an item for its inside pairs.
  std::vector<std::vector<Mem>> members(1);
  std::unordered_map<RankingId, uint32_t> slot;
  std::vector<Item> items;
  items.reserve(rj.size());
  for (const auto& cp : clustering.pairs) {
    const auto [it, inserted] =
        slot.try_emplace(cp.centroid, static_cast<uint32_t>(members.size()));
    if (inserted) {
      members.emplace_back();
      const Mem c = representative(cp.centroid);
      items.push_back(Item{c, c, Distance{}, it->second, it->second});
    }
    members[it->second].push_back(
        Mem{cp.member, cp.distance, representative(cp.member).home});
  }
  auto slot_of = [&slot](RankingId c) {
    const auto it = slot.find(c);
    return it == slot.end() ? 0u : it->second;
  };
  for (const auto& cp : rj) {
    items.push_back(Item{representative(cp.ci), representative(cp.cj),
                         cp.distance, slot_of(cp.ci), slot_of(cp.cj)});
  }
  const minispark::Broadcast<std::vector<std::vector<Mem>>> members_bc =
      ctx->MakeBroadcast(std::move(members), names + "expand/members");

  auto expand = [ectx, members_bc](const std::vector<Item>& part,
                                   JoinStats* local) {
    std::vector<ResultPair> out;
    for (const Item& item : part) {
      auto owned = [&item, local](const Mem& a, const Mem& b) {
        if (std::min(a.home, b.home) == item.x.id &&
            std::max(a.home, b.home) == item.y.id) {
          return true;
        }
        ++local->owner_skipped;
        return false;
      };
      // A pair whose distance is known exactly: a representative and one
      // of its members, or the two representatives.
      auto exact = [&](const Mem& a, const Mem& b, Distance d) {
        if (owned(a, b) && P::Within(d, ectx.theta)) {
          out.push_back(MakeResultPair(a.id, b.id));
        }
      };
      auto bounded = [&](const Mem& a, const Mem& b, Bound lower,
                         Bound upper) {
        if (a.id != b.id && owned(a, b)) {
          EmitWithTriangleBounds(ectx, a.id, b.id, lower, upper, &out, local);
        }
      };
      const std::vector<Mem>& xs = (*members_bc)[item.x_slot];
      if (item.x.id == item.y.id) {
        // Inside one cluster: (centroid, member) pairs are within
        // theta_c; member pairs within the sum of their distances.
        for (size_t i = 0; i < xs.size(); ++i) {
          exact(item.x, xs[i], xs[i].distance);
          for (size_t j = i + 1; j < xs.size(); ++j) {
            bounded(xs[i], xs[j], Bound{0},
                    static_cast<Bound>(xs[i].distance) +
                        static_cast<Bound>(xs[j].distance));
          }
        }
        continue;
      }
      // Across clusters (Algorithm 2 lines 3-8): the representatives,
      // each one against the other's members, and member against member,
      // bounded around d(x, y) by the triangle inequality.
      const std::vector<Mem>& ys = (*members_bc)[item.y_slot];
      const Bound dxy = static_cast<Bound>(item.distance);
      exact(item.x, item.y, item.distance);
      for (const Mem& b : ys) {
        const Bound db = static_cast<Bound>(b.distance);
        bounded(item.x, b, std::abs(dxy - db), dxy + db);
      }
      for (const Mem& a : xs) {
        const Bound da = static_cast<Bound>(a.distance);
        bounded(a, item.y, std::abs(dxy - da), dxy + da);
        for (const Mem& b : ys) {
          const Bound db = static_cast<Bound>(b.distance);
          bounded(a, b, dxy - da - db, dxy + da + db);
        }
      }
    }
    return out;
  };

  // The kernel tallies into this phase-local accumulator, merged into
  // the caller's stats and published under "<scope>.expansion", so
  // traces show the triangle-inequality prune/shortcut effectiveness of
  // Section 5.3 in isolation.
  JoinStats expansion_stats;
  std::vector<ResultPair> collected =
      MapPartitionsWithStats(
          minispark::Parallelize(ctx, std::move(items), num_partitions),
          expand, names + "expand/pairs", &expansion_stats)
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
