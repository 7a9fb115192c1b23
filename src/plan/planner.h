#ifndef RANKJOIN_PLAN_PLANNER_H_
#define RANKJOIN_PLAN_PLANNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/config.h"
#include "minispark/context.h"
#include "plan/cost_model.h"
#include "ranking/ranking.h"

namespace rankjoin::plan {

/// One candidate strategy's estimated cost, kept in the plan so benches
/// can compare planner predictions against measurements
/// (search_sweet_spot's planner axis).
struct StrategyCost {
  Algorithm algorithm = Algorithm::kVJ;
  /// False when the strategy cannot run at these parameters (CL/CL-P
  /// with theta + 2*theta_c at or above the maximum distance).
  bool feasible = false;
  double makespan = 0.0;
  double est_candidates = 0.0;
  double est_shuffle_bytes = 0.0;
  /// Term breakdown from the cost model (free text).
  std::string detail;
};

/// The planner's decision: a concrete, directly executable configuration
/// (algorithm is never kAuto) plus the evidence behind it.
struct JoinPlan {
  Algorithm algorithm = Algorithm::kVJ;
  double theta = 0.0;
  /// Possibly shrunk from the configured value to keep the CL enlarged
  /// threshold below the maximum distance.
  double theta_c = 0.0;
  /// Partitioning threshold handed to CL-P (a CL pick runs as CL-P, see
  /// ApplyPlan). The configured delta when pinned (> 0), otherwise the
  /// profile's measured suggestion.
  uint64_t delta = 0;
  int num_partitions = -1;
  /// Human-readable explanation of the decision.
  std::string rationale;

  /// Profile evidence (see DatasetProfile).
  size_t sample_size = 0;
  double skew_ratio = 1.0;
  double pair_density_theta = 0.0;
  double centroid_fraction = 1.0;

  /// Every strategy considered, including infeasible ones.
  std::vector<StrategyCost> strategies;

  /// Single-object JSON (no trailing newline) for RANKJOIN_METRICS_JSON
  /// rows and JoinResult::plan_json.
  std::string ToJson() const;

  /// Compact one-line form for plan annotations (ExplainDot header).
  std::string Summary() const;
};

/// Builds the concrete SimilarityJoinConfig that executes `plan` on top
/// of the user's original config (filters, store, and partition settings
/// are preserved; algorithm/theta_c/delta come from the plan). A CL
/// pick executes as CL-P with the plan's delta, which splits only the
/// posting lists measured over it.
SimilarityJoinConfig ApplyPlan(const SimilarityJoinConfig& base,
                               const JoinPlan& plan);

/// Cost-based strategy selection for Algorithm::kAuto: profiles the
/// dataset with an error-bounded sample (cost_model.h), estimates the
/// makespan of VJ, CL, and CL-P, and returns the cheapest feasible plan.
/// `config.theta_c` is clamped (and halved if necessary) until the CL
/// enlarged threshold is valid; when no clustering threshold works, the
/// plan falls back to VJ. Deterministic: same dataset + same options =
/// same plan.
Result<JoinPlan> PlanJoin(minispark::Context* ctx,
                          const RankingDataset& dataset,
                          const SimilarityJoinConfig& config,
                          const PlannerOptions& options = {});

}  // namespace rankjoin::plan

#endif  // RANKJOIN_PLAN_PLANNER_H_
