#include "plan/planner.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "ranking/footrule.h"

namespace rankjoin::plan {
namespace {

std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string FormatDouble(double v) {
  std::ostringstream os;
  os.precision(6);
  os << v;
  return os.str();
}

/// True when CL can run at (theta, theta_c): the enlarged centroid-join
/// threshold must stay below the maximum distance, and theta_c below
/// theta (ValidateClOptions).
bool ClFeasible(double theta, double theta_c, int k) {
  if (theta_c < 0.0 || theta_c > theta) return false;
  return RawThreshold(theta, k) + 2 * RawThreshold(theta_c, k) <
         MaxFootrule(k);
}

const StrategyCost* Cheapest(const std::vector<StrategyCost>& strategies) {
  const StrategyCost* best = nullptr;
  for (const StrategyCost& s : strategies) {
    if (!s.feasible) continue;
    if (best == nullptr || s.makespan < best->makespan) best = &s;
  }
  return best;
}

}  // namespace

std::string JoinPlan::ToJson() const {
  std::ostringstream os;
  os << "{\"algorithm\":\"" << AlgorithmName(algorithm) << "\""
     << ",\"theta\":" << FormatDouble(theta)
     << ",\"theta_c\":" << FormatDouble(theta_c) << ",\"delta\":" << delta
     << ",\"num_partitions\":" << num_partitions
     << ",\"sample_size\":" << sample_size
     << ",\"skew_ratio\":" << FormatDouble(skew_ratio)
     << ",\"pair_density_theta\":" << FormatDouble(pair_density_theta)
     << ",\"centroid_fraction\":" << FormatDouble(centroid_fraction)
     << ",\"strategies\":[";
  for (size_t i = 0; i < strategies.size(); ++i) {
    const StrategyCost& s = strategies[i];
    if (i > 0) os << ",";
    os << "{\"algorithm\":\"" << AlgorithmName(s.algorithm) << "\""
       << ",\"feasible\":" << (s.feasible ? "true" : "false")
       << ",\"makespan\":" << FormatDouble(s.makespan)
       << ",\"est_candidates\":" << FormatDouble(s.est_candidates)
       << ",\"est_shuffle_bytes\":" << FormatDouble(s.est_shuffle_bytes)
       << ",\"detail\":\"" << EscapeJson(s.detail) << "\"}";
  }
  os << "],\"rationale\":\"" << EscapeJson(rationale) << "\"}";
  return os.str();
}

std::string JoinPlan::Summary() const {
  std::ostringstream os;
  os << "plan: " << AlgorithmName(algorithm) << " theta=" << theta;
  if (algorithm == Algorithm::kCL || algorithm == Algorithm::kCLP) {
    os << " theta_c=" << theta_c << " delta=" << delta;
  }
  os << " | sample=" << sample_size << " skew=" << FormatDouble(skew_ratio);
  for (const StrategyCost& s : strategies) {
    os << " | " << AlgorithmName(s.algorithm) << "="
       << (s.feasible ? FormatDouble(s.makespan) : std::string("infeasible"));
  }
  return os.str();
}

SimilarityJoinConfig ApplyPlan(const SimilarityJoinConfig& base,
                               const JoinPlan& plan) {
  SimilarityJoinConfig config = base;
  // A CL pick runs as CL-P: the sample can miss a skew tail, and CL-P
  // splits only the posting lists measured over plan.delta, so when they
  // all fit it costs one materialization of the lists.
  config.algorithm =
      plan.algorithm == Algorithm::kCL ? Algorithm::kCLP : plan.algorithm;
  config.theta = plan.theta;
  config.theta_c = plan.theta_c;
  config.delta = plan.delta;
  config.num_partitions = plan.num_partitions;
  return config;
}

Result<JoinPlan> PlanJoin(minispark::Context* ctx,
                          const RankingDataset& dataset,
                          const SimilarityJoinConfig& config,
                          const PlannerOptions& options) {
  if (ctx == nullptr) return Status::InvalidArgument("null context");
  const int k = dataset.k;
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  if (config.theta < 0.0 || config.theta >= 1.0) {
    return Status::InvalidArgument("theta must be in [0, 1)");
  }
  // Before anything reads dataset.store(): building the store copies k
  // items from every ranking, so a short one would be read past its end.
  RANKJOIN_RETURN_NOT_OK(dataset.Validate());

  PlannerOptions opts = options;
  if (opts.num_workers <= 0) opts.num_workers = ctx->num_workers();

  JoinPlan plan;
  plan.theta = config.theta;
  plan.num_partitions = config.num_partitions > 0
                            ? config.num_partitions
                            : ctx->default_partitions();

  const size_t n = dataset.size();
  if (n < 2) {
    plan.algorithm = Algorithm::kVJ;
    plan.rationale = "trivial dataset (fewer than two rankings): VJ";
    return plan;
  }

  // Clamp theta_c into the CL-feasible band, halving when the enlarged
  // threshold theta + 2*theta_c would reach the maximum distance. A
  // planner must not reject the job over a fixable parameter.
  double theta_c = std::clamp(config.theta_c, 0.0, config.theta);
  bool shrunk = false;
  while (theta_c > 1e-6 && !ClFeasible(config.theta, theta_c, k)) {
    theta_c /= 2.0;
    shrunk = true;
  }
  const bool cl_feasible = ClFeasible(config.theta, theta_c, k);
  plan.theta_c = cl_feasible ? theta_c : 0.0;

  const DatasetProfile profile = ProfileDataset(
      dataset.store(), config.theta, cl_feasible ? theta_c : 0.0, opts);
  plan.sample_size = profile.sample_size;
  plan.skew_ratio = profile.skew_ratio;
  plan.pair_density_theta = profile.pair_density_theta;
  plan.centroid_fraction = profile.centroid_fraction;
  plan.delta = config.delta > 0 ? config.delta : profile.suggested_delta;

  const CostEstimate vj = EstimateVjCost(profile, opts);
  plan.strategies.push_back({Algorithm::kVJ, true, vj.makespan,
                             vj.est_candidates, vj.est_shuffle_bytes,
                             vj.detail});
  if (cl_feasible) {
    const CostEstimate cl = EstimateClCost(profile, opts);
    plan.strategies.push_back({Algorithm::kCL, true, cl.makespan,
                               cl.est_candidates, cl.est_shuffle_bytes,
                               cl.detail});
    const CostEstimate clp = EstimateClpCost(profile, plan.delta, opts);
    plan.strategies.push_back({Algorithm::kCLP, true, clp.makespan,
                               clp.est_candidates, clp.est_shuffle_bytes,
                               clp.detail});
  } else {
    plan.strategies.push_back(
        {Algorithm::kCL, false, 0.0, 0.0, 0.0,
         "theta + 2*theta_c reaches the maximum distance"});
    plan.strategies.push_back(
        {Algorithm::kCLP, false, 0.0, 0.0, 0.0,
         "theta + 2*theta_c reaches the maximum distance"});
  }

  const StrategyCost* best = Cheapest(plan.strategies);
  plan.algorithm = best->algorithm;
  if (plan.algorithm == Algorithm::kVJ) plan.delta = 0;

  std::ostringstream why;
  why << "picked " << AlgorithmName(plan.algorithm) << " (makespan "
      << FormatDouble(best->makespan) << ") from sample of "
      << profile.sample_size << "/" << n << ": pair density "
      << FormatDouble(profile.pair_density_theta) << " at theta, "
      << FormatDouble(profile.pair_density_theta_c)
      << " at theta_c; centroid fraction "
      << FormatDouble(profile.centroid_fraction) << "; skew ratio "
      << FormatDouble(profile.skew_ratio);
  if (shrunk) {
    why << "; theta_c shrunk to " << FormatDouble(theta_c)
        << " for CL validity";
  }
  if (!cl_feasible) why << "; CL/CL-P infeasible at these thresholds";
  if (plan.algorithm != Algorithm::kVJ) {
    why << "; delta " << plan.delta
        << (config.delta > 0 ? " (configured)" : " (measured suggestion)");
  }
  why << ". " << best->detail;
  plan.rationale = why.str();
  return plan;
}

}  // namespace rankjoin::plan
