// Pins the exact work counters of the two Jaccard pipelines on one
// seeded input. The counters are deterministic (they count per-group and
// per-expansion-record work, independent of scheduling), so any change
// to how the Jaccard joins generate, filter or verify candidates shows
// up here as a diff against these figures.

#include <gtest/gtest.h>

#include "jaccard/jaccard_join.h"
#include "tests/test_util.h"

namespace rankjoin {
namespace {

using testutil::SmallSkewedDataset;
using testutil::TestCluster;

JaccardJoinOptions PinnedOptions() {
  JaccardJoinOptions options;
  options.theta = 0.4;
  options.theta_c = 0.05;
  return options;
}

TEST(JaccardCountersTest, VjCountersArePinned) {
  const RankingDataset ds = SmallSkewedDataset(4242);
  minispark::Context ctx(TestCluster());
  auto result = RunJaccardVjJoin(&ctx, ds, PinnedOptions());
  ASSERT_TRUE(result.ok()) << result.status();
  const JoinStats& s = result->stats;
  EXPECT_EQ(s.candidates, 2632u);
  EXPECT_EQ(s.verified, 2419u);
  EXPECT_EQ(s.triangle_filtered, 0u);
  EXPECT_EQ(s.emitted_unverified, 0u);
  EXPECT_EQ(s.clusters, 0u);
  EXPECT_EQ(s.singletons, 0u);
  EXPECT_EQ(s.result_pairs, 160u);
}

TEST(JaccardCountersTest, ClusterJoinCountersArePinned) {
  const RankingDataset ds = SmallSkewedDataset(4242);
  minispark::Context ctx(TestCluster());
  auto result = RunJaccardClusterJoin(&ctx, ds, PinnedOptions());
  ASSERT_TRUE(result.ok()) << result.status();
  const JoinStats& s = result->stats;
  EXPECT_EQ(s.candidates, 2677u);
  EXPECT_EQ(s.verified, 2470u);
  EXPECT_EQ(s.triangle_filtered, 0u);
  EXPECT_EQ(s.emitted_unverified, 40u);
  EXPECT_EQ(s.clusters, 31u);
  EXPECT_EQ(s.singletons, 342u);
  EXPECT_EQ(s.result_pairs, 160u);
}

}  // namespace
}  // namespace rankjoin
