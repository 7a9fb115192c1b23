// Property tests for the lazy stage-fused execution engine: every join
// pipeline, run fused, must return exactly its brute-force pair set, and
// fusion must keep the CL pipeline at its known stage count.
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/similarity_join.h"
#include "jaccard/jaccard_join.h"
#include "join/rs_join.h"
#include "minispark/dataset.h"
#include "minispark/metrics.h"
#include "tests/test_util.h"

namespace rankjoin {
namespace {

using minispark::Context;
using testutil::PairSet;
using testutil::SmallSkewedDataset;
using testutil::TestCluster;
using testutil::Truth;

SimilarityJoinConfig ConfigFor(Algorithm algorithm) {
  SimilarityJoinConfig config;
  config.algorithm = algorithm;
  config.theta = 0.25;
  config.theta_c = 0.05;
  if (algorithm == Algorithm::kCLP) config.delta = 8;
  return config;
}

/// Every algorithm of the paper's evaluation returns the brute-force pair
/// set, each qualifying pair exactly once (smaller id first), with
/// fused narrow chains.
TEST(FusionPropertyTest, EveryAlgorithmMatchesBruteForce) {
  const RankingDataset dataset = SmallSkewedDataset(/*seed=*/7, /*n=*/300);
  const std::set<ResultPair> truth = Truth(dataset, 0.25);
  const Algorithm algorithms[] = {Algorithm::kBruteForce, Algorithm::kVJ,
                                  Algorithm::kVJNL,       Algorithm::kCL,
                                  Algorithm::kCLP,        Algorithm::kVSmart};
  for (Algorithm algorithm : algorithms) {
    SCOPED_TRACE(AlgorithmName(algorithm));
    Context ctx(TestCluster());
    auto result = RunSimilarityJoin(&ctx, dataset, ConfigFor(algorithm));
    ASSERT_TRUE(result.ok()) << result.status().message();
    // Each exactly once: no duplicates hiding behind the set compare.
    EXPECT_EQ(result->pairs.size(), PairSet(result->pairs).size());
    EXPECT_EQ(result->stats.result_pairs, truth.size());
    EXPECT_EQ(PairSet(result->pairs), truth);
  }
}

/// Same property for the two Jaccard joins against their brute force.
TEST(FusionPropertyTest, JaccardJoinsMatchBruteForce) {
  const RankingDataset dataset = SmallSkewedDataset(/*seed=*/7, /*n=*/300);
  JaccardJoinOptions options;
  options.theta = 0.4;
  options.theta_c = 0.05;
  const std::set<ResultPair> truth =
      PairSet(JaccardBruteForceJoin(dataset, options.theta).pairs);
  Context vj_ctx(TestCluster());
  auto vj = RunJaccardVjJoin(&vj_ctx, dataset, options);
  ASSERT_TRUE(vj.ok()) << vj.status().message();
  EXPECT_EQ(vj->pairs.size(), truth.size());
  EXPECT_EQ(PairSet(vj->pairs), truth);
  Context cl_ctx(TestCluster());
  auto cl = RunJaccardClusterJoin(&cl_ctx, dataset, options);
  ASSERT_TRUE(cl.ok()) << cl.status().message();
  EXPECT_EQ(cl->pairs.size(), truth.size());
  EXPECT_EQ(PairSet(cl->pairs), truth);
}

/// Same property for the two-dataset R-S join.
TEST(FusionPropertyTest, RsJoinMatchesBruteForce) {
  const RankingDataset r = SmallSkewedDataset(/*seed=*/11, /*n=*/150);
  const RankingDataset s = SmallSkewedDataset(/*seed=*/13, /*n=*/150);
  RsJoinOptions options;
  options.theta = 0.25;
  const std::set<ResultPair> truth =
      PairSet(BruteForceRsJoin(r, s, options.theta).pairs);

  Context ctx(TestCluster());
  auto result = RunRsJoin(&ctx, r, s, options);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(PairSet(result->pairs), truth);
}

/// Fusion collapses the CL pipeline's narrow chains (prefix flatMaps,
/// key maps, dedup maps) into its shuffles. The stage count is a
/// property of the plan, not of the data sizes or scheduling, so it is
/// pinned exactly: a lost fusion (or an extra barrier) shows up here.
TEST(FusionMetricsTest, ClPipelineStageCountIsPinned) {
  // Engine overrides from the CI jobs change how stages execute, not
  // the plan — but pin them off so the count stays the plan's.
  testutil::ScopedEnv pipelined("RANKJOIN_PIPELINED_STAGES", nullptr);
  testutil::ScopedEnv checkpoint_dir("RANKJOIN_CHECKPOINT_DIR", nullptr);
  testutil::ScopedEnv resume("RANKJOIN_RESUME", nullptr);
  testutil::ScopedEnv split("RANKJOIN_SPLIT_PARTITION_BYTES", nullptr);
  const RankingDataset dataset = SmallSkewedDataset(/*seed=*/7, /*n=*/300);
  Context ctx(TestCluster());
  ASSERT_TRUE(
      RunSimilarityJoin(&ctx, dataset, ConfigFor(Algorithm::kCL)).ok());
  EXPECT_EQ(ctx.metrics().NumStages(), 15u);
}

/// A narrow three-op chain executes as exactly one stage (plus the
/// source), and the stage advertises the fused logical ops.
TEST(FusionMetricsTest, NarrowChainFusesToSingleStage) {
  Context ctx(TestCluster());
  std::vector<int> data(256);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<int>(i);
  auto chain =
      minispark::Parallelize(&ctx, data, 4)
          .Map([](const int& x) { return x + 1; }, "inc")
          .Filter([](const int& x) { return x % 2 == 0; }, "evens")
          .FlatMap([](const int& x) { return std::vector<int>{x, -x}; },
                   "mirror");
  const size_t before = ctx.metrics().NumStages();
  chain.Collect();
  EXPECT_EQ(ctx.metrics().NumStages(), before + 1);
  const minispark::StageMetrics& stage = ctx.metrics().stages().back();
  EXPECT_EQ(stage.fused_ops, "map+filter+flatMap");
  EXPECT_EQ(stage.materialized_elements, 256u);
}

/// Cache() materializes a chain exactly once: repeated actions on the
/// cached dataset add no further stages to the job metrics.
TEST(FusionMetricsTest, CacheMaterializesOnceViaJobMetrics) {
  Context ctx(TestCluster());
  std::vector<int> data(64);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<int>(i);
  auto chain = minispark::Parallelize(&ctx, data, 4)
                   .Map([](const int& x) { return x * 3; }, "triple");
  chain.Cache();
  const size_t after_cache = ctx.metrics().NumStages();
  chain.Collect();
  chain.Count();
  chain.Collect();
  EXPECT_EQ(ctx.metrics().NumStages(), after_cache);
}

}  // namespace
}  // namespace rankjoin
