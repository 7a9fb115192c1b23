#include "join/cluster.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"
#include "common/random.h"
#include "join/local_join.h"
#include "join/repartition.h"
#include "join/stat_slots.h"
#include "minispark/dataset.h"
#include "ranking/footrule.h"
#include "ranking/prefix.h"

namespace rankjoin {
namespace {

/// Records the cluster shape in `stats` and publishes it under `scope`.
/// Paper Section 5 / Table 3: cluster count and membership-size shape
/// are the knobs that decide whether the centroid join pays off.
template <typename Distance>
void RecordClusterShape(minispark::Context* ctx, const std::string& scope,
                        const BasicClustering<Distance>& clustering,
                        JoinStats* stats) {
  stats->clusters = clustering.centroids.size();
  stats->singletons = clustering.singletons.size();
  stats->cluster_members = clustering.pairs.size();
  minispark::CounterRegistry& registry = ctx->counters();
  registry.Add(scope + ".clusters", stats->clusters);
  registry.Add(scope + ".singletons", stats->singletons);
  registry.Add(scope + ".members", stats->cluster_members);
  uint64_t max_cluster = 0;
  if (registry.enabled()) {
    std::unordered_map<RankingId, uint64_t> sizes;
    for (const auto& cp : clustering.pairs) ++sizes[cp.centroid];
    for (const auto& [centroid, size] : sizes) {
      max_cluster = std::max(max_cluster, size + 1);  // + the centroid
    }
  }
  registry.Add(scope + ".max_cluster_size", max_cluster);
}

}  // namespace

template <typename P>
BasicClustering<typename P::Distance> RunClusteringPhase(
    minispark::Context* ctx, const std::vector<const OrderedRanking*>& all,
    const internal::BasicSelfJoinSpec<typename P::Distance>& spec,
    JoinStats* stats) {
  using Distance = typename P::Distance;
  BasicClustering<Distance> clustering;
  std::vector<ScoredPair> scored =
      internal::DistributedSelfJoin<P>(ctx, all, spec, stats);

  // Cluster formation (Fig. 3): the smaller id of each qualifying pair
  // is the centroid, the larger one its member.
  clustering.pairs.reserve(scored.size());
  std::unordered_set<RankingId> centroid_ids;
  std::unordered_set<RankingId> in_any_pair;
  for (const ScoredPair& sp : scored) {
    const RankingId centroid = sp.first.first;
    const RankingId member = sp.first.second;
    clustering.pairs.push_back(BasicClusterPair<Distance>{
        centroid, member, P::FromScore(sp.second, spec.k)});
    centroid_ids.insert(centroid);
    in_any_pair.insert(centroid);
    in_any_pair.insert(member);
  }
  clustering.centroids.assign(centroid_ids.begin(), centroid_ids.end());
  std::sort(clustering.centroids.begin(), clustering.centroids.end());

  // Singletons: rankings with no theta_c-similar partner at all.
  for (const OrderedRanking* r : all) {
    if (in_any_pair.find(r->id) == in_any_pair.end()) {
      clustering.singletons.push_back(r->id);
    }
  }

  // (DistributedSelfJoin already published the theta_c join's
  // candidate/prune counters under spec.counter_scope.)
  RecordClusterShape(ctx, spec.counter_scope, clustering, stats);
  return clustering;
}

Clustering RunRandomCentroidClustering(
    minispark::Context* ctx, const std::vector<const OrderedRanking*>& all,
    int num_centroids, uint32_t raw_theta_c, uint64_t seed,
    JoinStats* stats) {
  Clustering clustering;
  if (all.empty()) return clustering;

  // Pick centroids uniformly at random (without replacement).
  Rng rng(seed);
  std::vector<uint32_t> positions(all.size());
  for (size_t i = 0; i < positions.size(); ++i) {
    positions[i] = static_cast<uint32_t>(i);
  }
  rng.Shuffle(positions);
  const size_t centroid_count =
      std::min(static_cast<size_t>(std::max(1, num_centroids)), all.size());
  std::vector<const OrderedRanking*> centroid_rankings;
  centroid_rankings.reserve(centroid_count);
  for (size_t i = 0; i < centroid_count; ++i) {
    centroid_rankings.push_back(all[positions[i]]);
    clustering.centroids.push_back(all[positions[i]]->id);
  }
  std::sort(clustering.centroids.begin(), clustering.centroids.end());

  // Assign every non-centroid to its closest centroid within theta_c —
  // the [27]-style assignment, broadcast + map over the dataset.
  minispark::Broadcast<std::vector<const OrderedRanking*>> centroids_bc =
      ctx->MakeBroadcast(std::move(centroid_rankings), "cl/centroids");
  minispark::Dataset<const OrderedRanking*> rankings =
      minispark::Parallelize(ctx, all, ctx->default_partitions());
  JoinStats assign_stats;
  auto assignments = MapPartitionsWithStats(
      rankings,
      [centroids_bc, raw_theta_c](
          const std::vector<const OrderedRanking*>& part, JoinStats* local) {
        // (centroid id, member id, distance); centroid id == member id
        // encodes "no centroid in range".
        std::vector<ClusterPair> out;
        for (const OrderedRanking* r : part) {
          ClusterPair assignment{r->id, r->id, 0};
          uint32_t best = raw_theta_c + 1;
          for (const OrderedRanking* centroid : *centroids_bc) {
            if (centroid->id == r->id) {
              // A centroid represents itself.
              assignment = ClusterPair{r->id, r->id, 0};
              best = 0;
              break;
            }
            ++local->candidates;
            if (auto d = VerifyPair(*r, *centroid,
                                    best == raw_theta_c + 1 ? raw_theta_c
                                                            : best - 1,
                                    local)) {
              assignment = ClusterPair{centroid->id, r->id, *d};
              best = *d;
              if (best == 0) break;
            }
          }
          out.push_back(assignment);
        }
        return out;
      },
      "randomClustering/assign", &assign_stats);
  assign_stats.PublishCounters(&ctx->counters(), "cl.randomClustering");
  stats->MergeCounters(assign_stats);

  std::unordered_set<RankingId> centroid_ids(clustering.centroids.begin(),
                                             clustering.centroids.end());
  for (const ClusterPair& assignment : assignments.Collect()) {
    if (centroid_ids.count(assignment.member) > 0) continue;  // centroid
    if (assignment.centroid == assignment.member) {
      // No centroid within theta_c: de-facto singleton (the random
      // strategy's weakness — this ranking may well have close
      // neighbors that simply were not drawn as centroids).
      clustering.singletons.push_back(assignment.member);
    } else {
      clustering.pairs.push_back(assignment);
    }
  }

  RecordClusterShape(ctx, "cl.clustering", clustering, stats);
  return clustering;
}

template <typename P>
std::vector<BasicCentroidPair<typename P::Distance>> RunCentroidJoin(
    minispark::Context* ctx, const RankingTable& table,
    const std::vector<RankingId>& centroids,
    const std::vector<RankingId>& singletons,
    const BasicCentroidJoinSpec<typename P::Distance>& spec,
    JoinStats* stats) {
  using Distance = typename P::Distance;
  const auto thresholds = MixedThresholds<Distance>::Enlarged(
      spec.raw_theta, spec.raw_theta_c, spec.singleton_optimization);
  const int prefix_m = P::Prefix(thresholds.mm, spec.k, PrefixMode::kOverlap);
  // Completeness requires the singleton prefix to cover the (m, s) pair
  // threshold (see cluster.h); with the optimization off ms == mm and
  // all prefixes are the same.
  const int prefix_s = P::Prefix(thresholds.ms, spec.k, PrefixMode::kOverlap);
  const std::string& names = spec.stage_prefix;

  // Emit prefix postings for both centroid classes, tagged with their
  // type, then group by item (Algorithm 1's transform_and_emit).
  struct Tagged {
    RankingId id;
    bool singleton;
  };
  std::vector<Tagged> tagged;
  tagged.reserve(centroids.size() + singletons.size());
  for (RankingId id : centroids) tagged.push_back({id, false});
  for (RankingId id : singletons) tagged.push_back({id, true});

  minispark::Dataset<Tagged> centroid_ds =
      minispark::Parallelize(ctx, std::move(tagged), spec.num_partitions);
  const RankingTable* table_ptr = &table;
  auto postings = centroid_ds.FlatMap(
      [table_ptr, prefix_m, prefix_s](const Tagged& t) {
        return internal::EmitPrefix(table_ptr->Get(t.id),
                                    t.singleton ? prefix_s : prefix_m,
                                    PrefixMode::kOverlap, t.singleton);
      },
      names + "centroidJoin/prefix");
  minispark::Dataset<PostingGroup> groups = minispark::GroupByKey(
      postings, spec.num_partitions, names + "centroidJoin/groupByItem");

  // Every pair is verified only in the list that owns it (local_join.h
  // GroupKey), so the centroid pairs come out distinct. The penalty
  // bound holds whatever the two prefix sizes, so it covers the mixed
  // centroid/singleton prefixes too.
  const bool position_filter = spec.position_filter;
  LocalJoinFn local_join = [thresholds, position_filter](
                               ItemId item,
                               const std::vector<PrefixPosting>& group,
                               std::vector<ScoredPair>* out, JoinStats* s) {
    NestedLoopJoin<P>(group, thresholds, position_filter, out, s,
                      GroupKey{item});
  };
  LocalRsJoinFn rs_join = [thresholds, position_filter](
                              ItemId item,
                              const std::vector<PrefixPosting>& left,
                              const std::vector<PrefixPosting>& right,
                              std::vector<ScoredPair>* out, JoinStats* s) {
    NestedLoopJoinRS<P>(left, right, thresholds, position_filter, out, s,
                        GroupKey{item});
  };

  // Phase-local stats, published under the centroid join's own scope:
  // these are the candidates examined under the ENLARGED theta_o
  // thresholds of Lemma 5.1/5.3, the number the paper uses to argue the
  // cluster-level join is cheap relative to expansion.
  JoinStats phase_stats;
  minispark::Dataset<ScoredPair> pairs = JoinGroupsWithRepartitioning(
      groups, spec.repartition_delta, spec.num_partitions, local_join,
      rs_join, &phase_stats);

  std::vector<BasicCentroidPair<Distance>> result;
  for (const ScoredPair& sp : pairs.Collect()) {
    result.push_back(BasicCentroidPair<Distance>{
        sp.first.first, sp.first.second, P::FromScore(sp.second, spec.k)});
  }
  phase_stats.PublishCounters(&ctx->counters(), spec.counter_scope);
  ctx->counters().Add(spec.counter_scope + ".pairs", result.size());
  stats->MergeCounters(phase_stats);
  return result;
}

#define RANKJOIN_INSTANTIATE_CLUSTER(P)                                    \
  template BasicClustering<P::Distance> RunClusteringPhase<P>(             \
      minispark::Context*, const std::vector<const OrderedRanking*>&,      \
      const internal::BasicSelfJoinSpec<P::Distance>&, JoinStats*);        \
  template std::vector<BasicCentroidPair<P::Distance>> RunCentroidJoin<P>( \
      minispark::Context*, const RankingTable&,                            \
      const std::vector<RankingId>&, const std::vector<RankingId>&,        \
      const BasicCentroidJoinSpec<P::Distance>&, JoinStats*);

RANKJOIN_INSTANTIATE_CLUSTER(FootrulePolicy)
RANKJOIN_INSTANTIATE_CLUSTER(JaccardPolicy)

#undef RANKJOIN_INSTANTIATE_CLUSTER

}  // namespace rankjoin
