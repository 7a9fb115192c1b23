#include "ranking/ranking.h"

#include <gtest/gtest.h>

namespace rankjoin {
namespace {

TEST(RankingTest, BasicAccessors) {
  Ranking r(7, {2, 5, 4, 3, 1});  // tau_1 from Table 2
  EXPECT_EQ(r.id(), 7u);
  EXPECT_EQ(r.k(), 5);
  EXPECT_EQ(r.ItemAt(0), 2u);
  EXPECT_EQ(r.ItemAt(4), 1u);
}

TEST(RankingTest, RankOf) {
  Ranking r(0, {2, 5, 4, 3, 1});
  EXPECT_EQ(r.RankOf(2), 0);
  EXPECT_EQ(r.RankOf(1), 4);
  EXPECT_EQ(r.RankOf(99), -1);
}

TEST(RankingTest, ValidityDetectsDuplicates) {
  EXPECT_TRUE(Ranking(0, {1, 2, 3}).IsValid());
  EXPECT_FALSE(Ranking(0, {1, 2, 1}).IsValid());
  EXPECT_TRUE(Ranking(0, {}).IsValid());
}

TEST(RankingTest, ToStringFormat) {
  Ranking r(3, {9, 8});
  EXPECT_EQ(r.ToString(), "3: [9, 8]");
}

TEST(RankingTest, Equality) {
  EXPECT_EQ(Ranking(1, {1, 2}), Ranking(1, {1, 2}));
  EXPECT_FALSE(Ranking(1, {1, 2}) == Ranking(2, {1, 2}));
  EXPECT_FALSE(Ranking(1, {1, 2}) == Ranking(1, {2, 1}));
}

TEST(RankingDatasetTest, ValidateAcceptsConsistentData) {
  RankingDataset ds;
  ds.k = 3;
  ds.rankings = {Ranking(0, {1, 2, 3}), Ranking(1, {4, 5, 6})};
  EXPECT_TRUE(ds.Validate().ok());
}

TEST(RankingDatasetTest, ValidateRejectsWrongLength) {
  RankingDataset ds;
  ds.k = 3;
  ds.rankings = {Ranking(0, {1, 2})};
  Status s = ds.Validate();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("length"), std::string::npos);
}

TEST(RankingDatasetTest, ValidateRejectsDuplicateItems) {
  RankingDataset ds;
  ds.k = 3;
  ds.rankings = {Ranking(0, {1, 1, 3})};
  EXPECT_EQ(ds.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(RankingDatasetTest, ValidateRejectsDuplicateIds) {
  RankingDataset ds;
  ds.k = 3;
  ds.rankings = {Ranking(7, {1, 2, 3}), Ranking(7, {1, 2, 4}),
                 Ranking(8, {1, 2, 3})};
  Status s = ds.Validate();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("ranking id 7"), std::string::npos)
      << s.message();
}

}  // namespace
}  // namespace rankjoin
