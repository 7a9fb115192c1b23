// Tests of the benchmark's own code: the output check must catch each
// kind of defective pair file, and the statistics and span accounting
// must give known answers on known inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "check.h"
#include "data/generator.h"
#include "data/io.h"
#include "ranking/footrule.h"
#include "spans.h"
#include "stats.h"

namespace rankjoin::perfbench {
namespace {

TEST(StatsTest, MedianOfOddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
}

// Expected values are Python's statistics.quantiles(values, n=4).
TEST(StatsTest, QuartilesMatchPythonExclusiveMethod) {
  const auto a = Quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(a[0], 2.75);
  EXPECT_DOUBLE_EQ(a[1], 5.5);
  EXPECT_DOUBLE_EQ(a[2], 8.25);
  const auto b = Quartiles({5, 4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(b[0], 1.5);
  EXPECT_DOUBLE_EQ(b[1], 3.0);
  EXPECT_DOUBLE_EQ(b[2], 4.5);
  const auto c = Quartiles({3, 1});
  EXPECT_DOUBLE_EQ(c[0], 0.5);
  EXPECT_DOUBLE_EQ(c[1], 2.0);
  EXPECT_DOUBLE_EQ(c[2], 3.5);
  const auto d = Quartiles({0.5, 0.25, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(d[0], 0.3125);
  EXPECT_DOUBLE_EQ(d[1], 0.75);
  EXPECT_DOUBLE_EQ(d[2], 1.75);
}

TEST(StatsTest, NearestRankPercentile) {
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  EXPECT_DOUBLE_EQ(Percentile(hundred, 90), 90.0);
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 90), 9.0);
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3}, 90), 3.0);
  EXPECT_DOUBLE_EQ(Percentile({5}, 90), 5.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 90), 0.0);
}

/// A small input with planted near-duplicates and its exact pair set.
class CheckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GeneratorOptions options = DblpLikeOptions();
    options.num_rankings = 300;
    options.domain_size = 200;
    options.seed = 11;
    dataset_ = GenerateDataset(options);
    raw_theta_ = RawThreshold(0.3, dataset_.k);
    for (size_t i = 0; i < dataset_.rankings.size(); ++i) {
      for (size_t j = i + 1; j < dataset_.rankings.size(); ++j) {
        const Ranking& a = dataset_.rankings[i];
        const Ranking& b = dataset_.rankings[j];
        if (FootruleDistance(a, b) <= raw_theta_) {
          truth_.push_back(MakeResultPair(a.id(), b.id()));
        }
      }
    }
    SortPairs(&truth_);
    ASSERT_GE(truth_.size(), 4u);
  }

  /// The full check with every ranking as an anchor.
  Status CheckAll(const std::vector<ResultPair>& pairs) const {
    const RankingIndex index(dataset_);
    if (Status s = CheckPairOrder(pairs); !s.ok()) return s;
    if (Status s = CheckPairDistances(index, pairs, raw_theta_); !s.ok()) {
      return s;
    }
    const auto anchors =
        SampleAnchors(dataset_, pairs, dataset_.rankings.size(), 1);
    return CheckAnchors(index, pairs, raw_theta_, anchors);
  }

  RankingDataset dataset_;
  uint32_t raw_theta_ = 0;
  std::vector<ResultPair> truth_;
};

TEST_F(CheckTest, ExactPairSetPasses) { EXPECT_TRUE(CheckAll(truth_).ok()); }

TEST_F(CheckTest, CatchesDroppedPair) {
  std::vector<ResultPair> pairs = truth_;
  pairs.erase(pairs.begin() + 1);
  EXPECT_TRUE(CheckPairOrder(pairs).ok());
  EXPECT_FALSE(CheckAll(pairs).ok());
  EXPECT_NE(PairDigest(pairs), PairDigest(truth_));
}

TEST_F(CheckTest, CatchesExtraPair) {
  std::vector<ResultPair> pairs = truth_;
  // Rankings 0 and 1 are unrelated draws unless planted as copies; find a
  // pair that does not qualify and add it in sorted position.
  ResultPair extra{0, 0};
  for (RankingId b = 1; extra.second == 0; ++b) {
    if (!std::binary_search(truth_.begin(), truth_.end(), ResultPair{0, b})) {
      extra = {0, b};
    }
  }
  pairs.insert(std::lower_bound(pairs.begin(), pairs.end(), extra), extra);
  EXPECT_TRUE(CheckPairOrder(pairs).ok());
  EXPECT_FALSE(CheckPairDistances(RankingIndex(dataset_), pairs, raw_theta_).ok());
  EXPECT_FALSE(CheckAll(pairs).ok());
}

TEST_F(CheckTest, CatchesDuplicatePair) {
  std::vector<ResultPair> pairs = truth_;
  pairs.insert(pairs.begin() + 2, pairs[2]);
  const Status s = CheckPairOrder(pairs);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("duplicate"), std::string::npos);
}

TEST_F(CheckTest, CatchesMisorderedPair) {
  std::vector<ResultPair> reversed = truth_;
  std::swap(reversed[0].first, reversed[0].second);
  EXPECT_FALSE(CheckPairOrder(reversed).ok());

  std::vector<ResultPair> unsorted = truth_;
  std::swap(unsorted[0], unsorted[1]);
  const Status s = CheckPairOrder(unsorted);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("out of order"), std::string::npos);
}

TEST_F(CheckTest, ReadsWhatWriteResultPairsWrites) {
  const std::string path = "rkbench_test_pairs.txt";
  std::vector<ResultPair> shuffled(truth_.rbegin(), truth_.rend());
  ASSERT_TRUE(WriteResultPairs(path, shuffled).ok());
  auto read = ReadPairFile(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, truth_);

  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("1 2\n3 x\n", f);
  std::fclose(f);
  EXPECT_FALSE(ReadPairFile(path).ok());
  std::remove(path.c_str());
}

TEST_F(CheckTest, AnchorSampleIsSeededAndSized) {
  const auto a = SampleAnchors(dataset_, truth_, 16, 5);
  EXPECT_EQ(a, SampleAnchors(dataset_, truth_, 16, 5));
  EXPECT_EQ(a.size(), 16u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
}

TEST(SpansTest, SelfTimesAddUpToTheRootSpan) {
  // pass [0, 100] -> data.load [10, 30], join.run [30, 60],
  // data.write [70, 80] -> data.flush [72, 75]; times in microseconds.
  auto span = [](int id, int parent, const char* name, double start,
                 double end) {
    Span s;
    s.id = id;
    s.parent = parent;
    s.pass = 1;
    s.name = name;
    s.start_us = start;
    s.end_us = end;
    return s;
  };
  std::vector<Span> spans = {
      span(0, -1, "pass", 0, 100),         span(1, 0, "data.load", 10, 30),
      span(2, 0, "join.run", 30, 60),      span(3, 0, "data.write", 70, 80),
      span(4, 3, "data.flush", 72, 75)};
  Span other = span(5, -1, "pass", 200, 300);
  other.pass = 2;
  spans.push_back(other);

  const auto self = SelfSecondsByLayer(spans, 1);
  EXPECT_DOUBLE_EQ(self.at("pass"), 40e-6);
  EXPECT_DOUBLE_EQ(self.at("data"), 30e-6);
  EXPECT_DOUBLE_EQ(self.at("join"), 30e-6);
  double total = 0;
  for (const auto& [layer, seconds] : self) total += seconds;
  EXPECT_DOUBLE_EQ(total, 100e-6);
}

TEST(SpansTest, RecorderWritesChromeTrace) {
  SpanRecorder recorder;
  {
    ScopedSpan root(&recorder, "pass", -1, 3);
    ScopedSpan child(&recorder, "data.load", root.id(), 3);
  }
  { ScopedSpan untraced(nullptr, "pass", -1, 4); }
  ASSERT_EQ(recorder.spans().size(), 2u);
  EXPECT_EQ(recorder.spans()[1].parent, 0);
  EXPECT_LE(recorder.spans()[1].end_us, recorder.spans()[0].end_us);
  const std::string json = recorder.ToChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"data.load\",\"cat\":\"data\""),
            std::string::npos);
}

}  // namespace
}  // namespace rankjoin::perfbench
