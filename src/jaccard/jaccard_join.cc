#include "jaccard/jaccard_join.h"

#include "join/brute_force.h"
#include "join/cluster_join.h"
#include "join/distance_policy.h"
#include "join/vj.h"
#include "minispark/dataset.h"

namespace rankjoin {
namespace {

Status ValidateOptions(const JaccardJoinOptions& options, int k,
                       bool clustering) {
  if (k < 1) return Status::InvalidArgument("dataset k must be >= 1");
  if (options.theta < 0.0 || options.theta >= 1.0) {
    return Status::InvalidArgument("theta must be in [0, 1)");
  }
  if (clustering) {
    if (options.theta_c < 0.0 || options.theta_c > options.theta) {
      return Status::InvalidArgument("theta_c must be in [0, theta]");
    }
    if (options.theta + 2 * options.theta_c >= 1.0) {
      return Status::InvalidArgument(
          "theta + 2*theta_c must stay below 1 (the disjoint-set "
          "distance)");
    }
  }
  return Status::OK();
}

/// The shared VJ options of a Jaccard run: sets have no rank order, so
/// the position filter is off and posting lists are joined with the
/// nested loop; counters publish under "jaccard".
VjOptions ToVjOptions(const JaccardJoinOptions& options) {
  VjOptions vj;
  vj.theta = options.theta;
  vj.num_partitions = options.num_partitions;
  vj.position_filter = false;
  vj.reorder_by_frequency = options.reorder_by_frequency;
  vj.local_algorithm = LocalAlgorithm::kNestedLoop;
  vj.counter_scope = "jaccard";
  return vj;
}

/// The shared CL options of a Jaccard run (same mapping as ToVjOptions).
ClOptions ToClOptions(const JaccardJoinOptions& options) {
  ClOptions cl;
  cl.theta = options.theta;
  cl.theta_c = options.theta_c;
  cl.num_partitions = options.num_partitions;
  cl.position_filter = false;
  cl.reorder_by_frequency = options.reorder_by_frequency;
  cl.clustering_algorithm = LocalAlgorithm::kNestedLoop;
  cl.singleton_optimization = options.singleton_optimization;
  cl.triangle_upper_shortcut = options.triangle_upper_shortcut;
  return cl;
}

}  // namespace

JoinResult JaccardBruteForceJoin(const RankingDataset& dataset,
                                 double theta) {
  return internal::BruteForcePipeline<JaccardPolicy>(dataset, theta);
}

Result<JoinResult> RunJaccardVjJoin(minispark::Context* ctx,
                                    const RankingDataset& dataset,
                                    const JaccardJoinOptions& options) {
  // A Cancel()/deadline stop anywhere inside unwinds here as a Status.
  return minispark::StopAware([&]() -> Result<JoinResult> {
    RANKJOIN_RETURN_NOT_OK(
        ValidateOptions(options, dataset.k, /*clustering=*/false));
    return internal::RunVjPipeline<JaccardPolicy>(
        ctx, dataset, ToVjOptions(options), "jaccard/");
  });
}

Result<JoinResult> RunJaccardClusterJoin(minispark::Context* ctx,
                                         const RankingDataset& dataset,
                                         const JaccardJoinOptions& options) {
  // A Cancel()/deadline stop anywhere inside unwinds here as a Status.
  return minispark::StopAware([&]() -> Result<JoinResult> {
    RANKJOIN_RETURN_NOT_OK(
        ValidateOptions(options, dataset.k, /*clustering=*/true));
    return internal::RunClusterPipeline<JaccardPolicy>(
        ctx, dataset, ToClOptions(options), "jaccard_cl", "jaccard_cl/");
  });
}

}  // namespace rankjoin
