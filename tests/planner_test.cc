// Cost-based planner tests (plan/): sample-size math, deterministic
// profiling, golden strategy decisions on seeded generator datasets
// (skewed -> CL-P, uniform-small -> VJ, duplicate-heavy -> CL),
// auto == explicit result identity, plan JSON surfacing, the
// ParseAlgorithm/AlgorithmName round trip for every enum value, the
// FlatRankings span overloads of the estimate helpers, and the runtime
// skew-splitting equivalence (split == unsplit byte-identical pairs,
// with and without chaos injection), and validation before profiling.

#include "plan/planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/similarity_join.h"
#include "join/estimate.h"
#include "plan/cost_model.h"
#include "ranking/reorder.h"
#include "test_util.h"

namespace rankjoin {
namespace {

using minispark::Context;
using plan::DatasetProfile;
using plan::ErrorBoundedSampleSize;
using plan::JoinPlan;
using plan::PlannerOptions;
using plan::ProfileDataset;
using testutil::PairSet;
using testutil::SmallSkewedDataset;
using testutil::TestCluster;
using testutil::Truth;

/// Pins an environment variable for one test's scope, restoring the
/// prior state on destruction (same rationale as in fault_test.cc: CI
/// runs the suite under several env overrides).
using rankjoin::testutil::ScopedEnv;

/// Pins the env knobs that change engine behavior mid-suite.
struct PinnedEnv {
  ScopedEnv split{"RANKJOIN_SPLIT_PARTITION_BYTES", nullptr};
  ScopedEnv fault{"RANKJOIN_FAULT_SPEC", nullptr};
  ScopedEnv budget{"RANKJOIN_SHUFFLE_BUDGET_BYTES", nullptr};
  ScopedEnv trace{"RANKJOIN_TRACE_LEVEL", nullptr};
  ScopedEnv lint{"RANKJOIN_LINT_LEVEL", nullptr};
  ScopedEnv pipelined{"RANKJOIN_PIPELINED_STAGES", nullptr};
};

// ---------------------------------------------------------------------
// Satellite: ParseAlgorithm / AlgorithmName round trip, every value.

TEST(AlgorithmTest, NameParseRoundTripCoversEveryValue) {
  const Algorithm all[] = {Algorithm::kBruteForce, Algorithm::kVJ,
                           Algorithm::kVJNL,       Algorithm::kCL,
                           Algorithm::kCLP,        Algorithm::kVSmart,
                           Algorithm::kAuto};
  for (Algorithm a : all) {
    auto parsed = ParseAlgorithm(AlgorithmName(a));
    ASSERT_TRUE(parsed.ok()) << AlgorithmName(a);
    EXPECT_EQ(*parsed, a) << AlgorithmName(a);
  }
  EXPECT_STREQ(AlgorithmName(Algorithm::kAuto), "auto");
  EXPECT_FALSE(ParseAlgorithm("automatic").ok());
}

TEST(AlgorithmTest, AutoConfigValidates) {
  SimilarityJoinConfig config;
  config.algorithm = Algorithm::kAuto;
  config.theta = 0.2;
  EXPECT_TRUE(config.Validate(10).ok());
  config.theta_c = -0.5;
  EXPECT_FALSE(config.Validate(10).ok());
}

// ---------------------------------------------------------------------
// Cost model: sample size and profiling.

TEST(CostModelTest, ErrorBoundedSampleSizeClampsAndScales) {
  PlannerOptions options;
  // Small datasets are sampled whole.
  EXPECT_EQ(ErrorBoundedSampleSize(0, options), 0u);
  EXPECT_EQ(ErrorBoundedSampleSize(150, options), 150u);
  // Hoeffding at the defaults: ln(2/0.05) / (2 * 0.05^2) ~ 738, above
  // the min clamp and below the max.
  const size_t m = ErrorBoundedSampleSize(1'000'000, options);
  EXPECT_GE(m, 700u);
  EXPECT_LE(m, 800u);
  // Tighter epsilon needs more samples, capped at max_sample.
  options.epsilon = 0.01;
  EXPECT_EQ(ErrorBoundedSampleSize(1'000'000, options),
            options.max_sample);
  // Looser epsilon floors at min_sample.
  options.epsilon = 0.5;
  EXPECT_EQ(ErrorBoundedSampleSize(1'000'000, options),
            options.min_sample);
}

TEST(CostModelTest, ProfileIsDeterministicAndSane) {
  const RankingDataset data = SmallSkewedDataset(7, 600);
  PlannerOptions options;
  const DatasetProfile a = ProfileDataset(data.store(), 0.2, 0.05, options);
  const DatasetProfile b = ProfileDataset(data.store(), 0.2, 0.05, options);
  EXPECT_EQ(a.sample_size, b.sample_size);
  EXPECT_EQ(a.sum_sq_theta, b.sum_sq_theta);
  EXPECT_EQ(a.suggested_delta, b.suggested_delta);
  EXPECT_DOUBLE_EQ(a.pair_density_theta, b.pair_density_theta);

  EXPECT_EQ(a.n, data.size());
  EXPECT_GT(a.sample_size, 0u);
  EXPECT_GE(a.scale, 1.0);
  EXPECT_GE(a.pair_density_theta, a.pair_density_theta_c);
  EXPECT_GT(a.centroid_fraction, 0.0);
  EXPECT_LE(a.centroid_fraction, 1.0);
  EXPECT_GE(a.avg_cluster_size, 1.0);
  EXPECT_GE(a.suggested_delta, 1u);
  EXPECT_GE(a.max_list_theta, 1u);
  // The near-duplicate population must show up as compression.
  EXPECT_LT(a.centroid_fraction, 1.0);
}

// ---------------------------------------------------------------------
// Satellite: FlatRankings span overloads of the estimate helpers agree
// with the legacy OrderedRanking overloads.

TEST(EstimateSpanOverloadTest, MatchesLegacyMeasurement) {
  const RankingDataset data = SmallSkewedDataset(3, 300);
  const ItemOrder order =
      ItemOrder::FromFrequencies(CountItemFrequencies(data.store()));
  const auto ordered = MakeOrderedDataset(data.store(), order);
  for (int prefix : {1, 3, 5}) {
    std::vector<size_t> legacy = MeasurePostingListLengths(ordered, prefix);
    std::vector<size_t> flat =
        MeasurePostingListLengths(data.store().Views(), prefix, &order);
    std::sort(legacy.begin(), legacy.end());
    std::sort(flat.begin(), flat.end());
    EXPECT_EQ(legacy, flat) << "prefix " << prefix;
    EXPECT_EQ(SuggestDeltaMeasured(ordered, prefix),
              SuggestDeltaMeasured(data.store().Views(), prefix, 4.0,
                                   &order));
  }
}

// ---------------------------------------------------------------------
// Golden planner decisions on seeded generator datasets.

RankingDataset UniformSmallDataset() {
  GeneratorOptions options;
  options.k = 10;
  options.num_rankings = 250;
  options.domain_size = 5000;
  options.zipf_skew = 0.0;
  options.near_duplicate_rate = 0.0;
  options.seed = 11;
  return GenerateDataset(options);
}

/// The truncation-artifact regime the paper observes on DBLP/ORKU: half
/// the records are exact copies, so theta_c-clustering collapses the
/// dataset (centroid fraction ~ 0.1) while VJ pays full quadratic price
/// at a large-theta prefix.
RankingDataset DuplicateHeavyDataset() {
  GeneratorOptions options;
  options.k = 10;
  options.num_rankings = 4000;
  options.domain_size = 2500;
  options.zipf_skew = 0.3;
  options.near_duplicate_rate = 0.15;
  options.exact_duplicate_rate = 0.5;
  options.max_perturbations = 1;
  options.seed = 12;
  return GenerateDataset(options);
}

/// Straggler-bound regime: a large theta saturates the prefixes, so the
/// Zipf head items survive frequency reordering into the inverted index
/// and one posting list holds a big share of the quadratic work. Only
/// CL-P can cap that list (Algorithm 3).
RankingDataset HighSkewDataset() {
  GeneratorOptions options;
  options.k = 10;
  options.num_rankings = 4000;
  options.domain_size = 500;
  options.zipf_skew = 1.1;
  options.near_duplicate_rate = 0.1;
  options.seed = 13;
  return GenerateDataset(options);
}

JoinPlan MustPlan(Context* ctx, const RankingDataset& data,
                  const SimilarityJoinConfig& config) {
  auto plan = plan::PlanJoin(ctx, data, config);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return *plan;
}

TEST(PlannerGoldenTest, UniformSmallPicksVj) {
  Context ctx(TestCluster());
  SimilarityJoinConfig config;
  config.algorithm = Algorithm::kAuto;
  config.theta = 0.2;
  const JoinPlan plan = MustPlan(&ctx, UniformSmallDataset(), config);
  EXPECT_EQ(plan.algorithm, Algorithm::kVJ) << plan.rationale;
  EXPECT_EQ(plan.delta, 0u);
}

TEST(PlannerGoldenTest, DuplicateHeavyPicksCl) {
  Context ctx(TestCluster());
  SimilarityJoinConfig config;
  config.algorithm = Algorithm::kAuto;
  config.theta = 0.3;
  config.theta_c = 0.02;
  const JoinPlan plan = MustPlan(&ctx, DuplicateHeavyDataset(), config);
  EXPECT_EQ(plan.algorithm, Algorithm::kCL) << plan.rationale;
  // CL plans carry the measured delta and execute as CL-P, which splits
  // only the posting lists measured over it.
  EXPECT_GT(plan.delta, 0u);
  EXPECT_EQ(plan::ApplyPlan(config, plan).algorithm, Algorithm::kCLP);
  EXPECT_LT(plan.centroid_fraction, 0.5);
}

TEST(PlannerGoldenTest, HighSkewPicksClp) {
  // 24 workers, mirroring the paper's executor count (Table 3): with
  // enough slots the per-worker share of the quadratic work drops below
  // the straggler list, and capping it is what wins.
  Context ctx(TestCluster(/*workers=*/24));
  SimilarityJoinConfig config;
  config.algorithm = Algorithm::kAuto;
  config.theta = 0.4;
  config.theta_c = 0.02;
  const JoinPlan plan = MustPlan(&ctx, HighSkewDataset(), config);
  EXPECT_EQ(plan.algorithm, Algorithm::kCLP) << plan.rationale;
  EXPECT_GT(plan.delta, 0u);
  EXPECT_GT(plan.skew_ratio, 2.0);
}

TEST(PlannerTest, TrivialAndInvalidInputs) {
  Context ctx(TestCluster());
  SimilarityJoinConfig config;
  config.algorithm = Algorithm::kAuto;
  config.theta = 0.2;
  RankingDataset empty;
  empty.k = 10;
  const auto plan = plan::PlanJoin(&ctx, empty, config);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->algorithm, Algorithm::kVJ);

  config.theta = 1.5;
  EXPECT_FALSE(plan::PlanJoin(&ctx, SmallSkewedDataset(), config).ok());
}

TEST(PlannerTest, RejectsShortRankingBeforeReadingTheStore) {
  // A 2-item ranking in a k = 3 dataset. Building the flat store copies
  // k items from every ranking, so profiling it would read past the
  // short ranking's items; PlanJoin must validate first and name it.
  Context ctx(TestCluster());
  SimilarityJoinConfig config;
  config.algorithm = Algorithm::kAuto;
  config.theta = 0.2;
  RankingDataset dataset;
  dataset.k = 3;
  dataset.rankings = {Ranking(0, {1, 2, 3}), Ranking(1, {4, 5, 6}),
                      Ranking(7, {1, 2})};
  const auto plan = plan::PlanJoin(&ctx, dataset, config);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(plan.status().message().find("ranking 7"), std::string::npos)
      << plan.status().message();
}

TEST(PlannerTest, ThetaCShrinksUntilClIsFeasible) {
  Context ctx(TestCluster());
  SimilarityJoinConfig config;
  config.algorithm = Algorithm::kAuto;
  // theta + 2*theta_c would reach the maximum distance: the planner must
  // shrink theta_c instead of failing or proposing an invalid CL plan.
  config.theta = 0.6;
  config.theta_c = 0.6;
  const JoinPlan plan = MustPlan(&ctx, SmallSkewedDataset(5, 300), config);
  const SimilarityJoinConfig concrete = plan::ApplyPlan(config, plan);
  EXPECT_TRUE(concrete.Validate(10).ok()) << plan.rationale;
}

TEST(PlannerTest, PlanJsonAndSummaryCarryTheDecision) {
  Context ctx(TestCluster());
  SimilarityJoinConfig config;
  config.algorithm = Algorithm::kAuto;
  config.theta = 0.2;
  const JoinPlan plan = MustPlan(&ctx, SmallSkewedDataset(9, 400), config);
  const std::string json = plan.ToJson();
  EXPECT_NE(json.find("\"algorithm\":\""), std::string::npos);
  EXPECT_NE(json.find("\"strategies\":["), std::string::npos);
  EXPECT_NE(json.find("\"rationale\":\""), std::string::npos);
  // Every strategy shows up in the comparison table.
  EXPECT_NE(json.find("\"vj\""), std::string::npos);
  EXPECT_NE(json.find("\"cl\""), std::string::npos);
  EXPECT_NE(json.find("\"cl-p\""), std::string::npos);
  EXPECT_NE(plan.Summary().find("plan: "), std::string::npos);
}

// ---------------------------------------------------------------------
// Auto == explicit identity, and the plan surfaces on the result.

TEST(PlannerExecutionTest, AutoMatchesExplicitAndTruth) {
  PinnedEnv pinned;
  const RankingDataset data = SmallSkewedDataset(21, 500);
  SimilarityJoinConfig config;
  config.algorithm = Algorithm::kAuto;
  config.theta = 0.2;
  config.theta_c = 0.05;

  Context plan_ctx(TestCluster());
  const JoinPlan plan = MustPlan(&plan_ctx, data, config);

  Context auto_ctx(TestCluster());
  auto auto_result = RunSimilarityJoin(&auto_ctx, data, config);
  ASSERT_TRUE(auto_result.ok()) << auto_result.status().ToString();
  EXPECT_FALSE(auto_result->plan_json.empty());
  // The planner decision is rendered into the DOT header annotation.
  EXPECT_EQ(auto_ctx.plan_annotation(), plan.Summary());

  Context explicit_ctx(TestCluster());
  auto explicit_result = RunSimilarityJoin(
      &explicit_ctx, data, plan::ApplyPlan(config, plan));
  ASSERT_TRUE(explicit_result.ok())
      << explicit_result.status().ToString();
  EXPECT_TRUE(explicit_result->plan_json.empty());

  EXPECT_EQ(PairSet(auto_result->pairs), PairSet(explicit_result->pairs));
  EXPECT_EQ(PairSet(auto_result->pairs), Truth(data, 0.2));
}

// ---------------------------------------------------------------------
// Runtime skew splitting: split == unsplit identical results, with and
// without chaos injection; CL-P splits only lists measured over delta.

TEST(SkewSplitTest, SplitAndUnsplitRunsAgreeOnPairs) {
  PinnedEnv pinned;
  const RankingDataset data = SmallSkewedDataset(31, 500);
  SimilarityJoinConfig config;
  config.algorithm = Algorithm::kVJ;
  config.theta = 0.25;

  Context plain_ctx(TestCluster());
  auto plain = RunSimilarityJoin(&plain_ctx, data, config);
  ASSERT_TRUE(plain.ok());

  // A tiny threshold forces every hash-keyed shuffle bucket to split.
  ScopedEnv split("RANKJOIN_SPLIT_PARTITION_BYTES", "256");
  Context split_ctx(TestCluster());
  auto split_result = RunSimilarityJoin(&split_ctx, data, config);
  ASSERT_TRUE(split_result.ok());
  EXPECT_GT(split_ctx.metrics().TotalSplitPartitions(), 0);

  EXPECT_EQ(PairSet(plain->pairs), PairSet(split_result->pairs));
  EXPECT_EQ(PairSet(plain->pairs), Truth(data, 0.25));
}

TEST(SkewSplitTest, SplitSurvivesChaosInjection) {
  PinnedEnv pinned;
  const RankingDataset data = SmallSkewedDataset(33, 400);
  SimilarityJoinConfig config;
  config.algorithm = Algorithm::kCL;
  config.theta = 0.2;
  config.theta_c = 0.05;

  Context plain_ctx(TestCluster());
  auto plain = RunSimilarityJoin(&plain_ctx, data, config);
  ASSERT_TRUE(plain.ok());

  ScopedEnv split("RANKJOIN_SPLIT_PARTITION_BYTES", "512");
  ScopedEnv budget("RANKJOIN_SHUFFLE_BUDGET_BYTES", "4096");
  ScopedEnv fault("RANKJOIN_FAULT_SPEC",
                  "task_throw:p=0.05;spill_corrupt:p=0.1;seed=7");
  Context chaos_ctx(TestCluster());
  auto chaos = RunSimilarityJoin(&chaos_ctx, data, config);
  ASSERT_TRUE(chaos.ok()) << chaos.status().ToString();
  EXPECT_EQ(PairSet(plain->pairs), PairSet(chaos->pairs));
}

TEST(SkewSplitTest, ClpSplitsOnlyMeasuredSkew) {
  PinnedEnv pinned;
  const RankingDataset data = SmallSkewedDataset(35, 500);
  SimilarityJoinConfig config;
  config.algorithm = Algorithm::kCL;
  config.theta = 0.2;
  config.theta_c = 0.05;
  Context plain_ctx(TestCluster());
  auto plain = RunSimilarityJoin(&plain_ctx, data, config);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();

  // CL-P with `delta`: the number of lists it split and the job's stage
  // count; its pairs must be CL's.
  auto run_clp = [&](uint64_t delta, uint64_t* lists_split, size_t* stages) {
    minispark::Context::Options options = TestCluster();
    options.trace_level = minispark::TraceLevel::kCounters;
    Context ctx(options);
    SimilarityJoinConfig clp_config = config;
    clp_config.algorithm = Algorithm::kCLP;
    clp_config.delta = delta;
    auto result = RunSimilarityJoin(&ctx, data, clp_config);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(PairSet(result->pairs), PairSet(plain->pairs))
        << "delta " << delta;
    *lists_split = ctx.counters().Value("repartition.lists_split");
    *stages = ctx.metrics().NumStages();
  };

  // delta = 1: every posting list is oversized and gets split.
  uint64_t split_lists = 0;
  size_t split_stages = 0;
  run_clp(1, &split_lists, &split_stages);
  EXPECT_GT(split_lists, 0u);

  // A generous delta measures, splits nothing, and skips the split
  // stages.
  uint64_t quiet_lists = 1;
  size_t quiet_stages = 0;
  run_clp(1'000'000, &quiet_lists, &quiet_stages);
  EXPECT_EQ(quiet_lists, 0u);
  EXPECT_LT(quiet_stages, split_stages);
}

}  // namespace
}  // namespace rankjoin
