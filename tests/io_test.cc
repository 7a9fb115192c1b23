#include "data/io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "data/generator.h"

namespace rankjoin {
namespace {

class IoTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return testing::TempDir() + "/rankjoin_io_" + name;
  }

  void WriteFile(const std::string& path, const std::string& content) {
    std::ofstream out(path);
    out << content;
  }
};

TEST_F(IoTest, RoundTrip) {
  GeneratorOptions options;
  options.num_rankings = 120;
  options.k = 7;
  options.domain_size = 80;
  RankingDataset original = GenerateDataset(options);

  const std::string path = TempPath("roundtrip.txt");
  ASSERT_TRUE(WriteRankings(path, original).ok());
  auto loaded = ReadRankings(path, 7);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded->rankings[i], original.rankings[i]);
  }
  std::remove(path.c_str());
}

TEST_F(IoTest, TextRoundTripOfMappedColumnarFile) {
  GeneratorOptions options;
  options.num_rankings = 50;
  options.k = 6;
  options.domain_size = 60;
  RankingDataset original = GenerateDataset(options);

  const std::string flat_path = TempPath("roundtrip.rkjc");
  const std::string text_path = TempPath("from_mmap.txt");
  ASSERT_TRUE(WriteFlatRankings(flat_path, original).ok());
  auto mapped = MapFlatRankings(flat_path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  ASSERT_TRUE(mapped->rankings.empty());  // born flat
  ASSERT_TRUE(WriteRankings(text_path, *mapped).ok());
  auto loaded = ReadRankings(text_path, 6);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->rankings, original.rankings);
  std::remove(flat_path.c_str());
  std::remove(text_path.c_str());
}

TEST_F(IoTest, ColumnarWriteRejectsShortRanking) {
  RankingDataset dataset;
  dataset.k = 3;
  dataset.rankings.emplace_back(0, std::vector<ItemId>{1, 2});
  const std::string path = TempPath("short.rkjc");
  const Status s = WriteFlatRankings(path, dataset);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("ranking 0"), std::string::npos) << s;
  std::remove(path.c_str());
}

TEST_F(IoTest, ParsesExplicitIdsAndComments) {
  const std::string path = TempPath("ids.txt");
  WriteFile(path,
            "# sample dataset (Table 2)\n"
            "1: 2 5 4 3 1\n"
            "\n"
            "2: 1 4 5 9 0\n");
  auto ds = ReadRankings(path, 5);
  ASSERT_TRUE(ds.ok()) << ds.status();
  ASSERT_EQ(ds->size(), 2u);
  EXPECT_EQ(ds->rankings[0].id(), 1u);
  EXPECT_EQ(ds->rankings[0].ItemAt(0), 2u);
  EXPECT_EQ(ds->rankings[1].id(), 2u);
  std::remove(path.c_str());
}

TEST_F(IoTest, AssignsLineIdsWithoutPrefix) {
  const std::string path = TempPath("noids.txt");
  WriteFile(path, "1 2 3\n4 5 6\n");
  auto ds = ReadRankings(path, 3);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->rankings[0].id(), 0u);
  EXPECT_EQ(ds->rankings[1].id(), 1u);
  std::remove(path.c_str());
}

TEST_F(IoTest, RejectsMissingFile) {
  auto ds = ReadRankings("/nonexistent/path/data.txt", 5);
  EXPECT_FALSE(ds.ok());
  EXPECT_EQ(ds.status().code(), StatusCode::kIoError);
}

TEST_F(IoTest, RejectsWrongLength) {
  const std::string path = TempPath("short.txt");
  WriteFile(path, "1 2 3\n");
  auto ds = ReadRankings(path, 5);
  EXPECT_FALSE(ds.ok());
  EXPECT_NE(ds.status().message().find("expected 5"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(IoTest, RejectsDuplicateItems) {
  const std::string path = TempPath("dup.txt");
  WriteFile(path, "1 2 2\n");
  auto ds = ReadRankings(path, 3);
  EXPECT_FALSE(ds.ok());
  EXPECT_NE(ds.status().message().find("duplicate"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(IoTest, RejectsNegativeItems) {
  const std::string path = TempPath("neg.txt");
  WriteFile(path, "1 -2 3\n");
  auto ds = ReadRankings(path, 3);
  EXPECT_FALSE(ds.ok());
  std::remove(path.c_str());
}

/// Loads `content` (k = 3) and expects an IoError naming line 2, where
/// every case below puts its bad line after one good one.
void ExpectRejectedAtLine2(const std::string& path, const std::string& bad,
                           const std::string& why) {
  {
    std::ofstream out(path);
    out << "0: 1 2 3\n" << bad << "\n";
  }
  auto ds = ReadRankings(path, 3);
  ASSERT_FALSE(ds.ok()) << bad << " was accepted";
  EXPECT_EQ(ds.status().code(), StatusCode::kIoError);
  EXPECT_NE(ds.status().message().find(path + ":2:"), std::string::npos)
      << ds.status().message();
  EXPECT_NE(ds.status().message().find(why), std::string::npos)
      << ds.status().message();
  std::remove(path.c_str());
}

TEST_F(IoTest, RejectsTrailingGarbage) {
  ExpectRejectedAtLine2(TempPath("garbage.txt"), "1: 1 2 3 x", "'x'");
  ExpectRejectedAtLine2(TempPath("garbage2.txt"), "1: 1 2 3x", "'3x'");
  ExpectRejectedAtLine2(TempPath("garbage3.txt"), "1x: 1 2 3", "id");
}

TEST_F(IoTest, RejectsIdAbove32Bits) {
  // 2^32 + 1 used to wrap to id 1.
  ExpectRejectedAtLine2(TempPath("bigid.txt"), "4294967297: 1 2 3", "id");
}

TEST_F(IoTest, RejectsItemAbove32Bits) {
  ExpectRejectedAtLine2(TempPath("bigitem.txt"), "1: 1 2 4294967296",
                        "'4294967296'");
}

TEST_F(IoTest, AcceptsLargestIdsAndTabs) {
  const std::string path = TempPath("maxid.txt");
  WriteFile(path, "4294967295:\t4294967295 0\t7 \r\n");
  auto ds = ReadRankings(path, 3);
  ASSERT_TRUE(ds.ok()) << ds.status();
  EXPECT_EQ(ds->rankings[0].id(), 4294967295u);
  EXPECT_EQ(ds->rankings[0].ItemAt(0), 4294967295u);
  EXPECT_EQ(ds->rankings[0].ItemAt(2), 7u);
  std::remove(path.c_str());
}

TEST(PreprocessSetsTest, CutsToFirstKDistinctTokens) {
  std::vector<std::vector<ItemId>> records = {
      {5, 5, 1, 2, 9, 9, 3},  // first 4 distinct tokens: 5 1 2 9
  };
  RankingDataset ds = PreprocessSets(records, 4);
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds.rankings[0].items(), (std::vector<ItemId>{5, 1, 2, 9}));
}

TEST(PreprocessSetsTest, DropsShortRecords) {
  std::vector<std::vector<ItemId>> records = {{1, 2}, {1, 2, 3, 4}};
  RankingDataset ds = PreprocessSets(records, 3);
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds.rankings[0].items(), (std::vector<ItemId>{1, 2, 3}));
}

TEST(PreprocessSetsTest, RemovesDuplicateRecords) {
  std::vector<std::vector<ItemId>> records = {
      {1, 2, 3}, {1, 2, 3}, {3, 2, 1}};
  RankingDataset ds = PreprocessSets(records, 3);
  EXPECT_EQ(ds.size(), 2u);
}

TEST(PreprocessSetsTest, CutCanCreateDistanceZeroPairs) {
  // The paper notes (Section 7) that cutting records to length k can
  // produce identical rankings even after duplicate-record removal.
  std::vector<std::vector<ItemId>> records = {{1, 2, 3, 4}, {1, 2, 3, 5}};
  RankingDataset ds = PreprocessSets(records, 3);
  ASSERT_EQ(ds.size(), 2u);
  EXPECT_EQ(ds.rankings[0].items(), ds.rankings[1].items());
}

TEST(WriteResultPairsTest, SortsOutput) {
  const std::string path = testing::TempDir() + "/rankjoin_pairs.txt";
  std::vector<std::pair<RankingId, RankingId>> pairs = {{3, 4}, {1, 2}};
  ASSERT_TRUE(WriteResultPairs(path, pairs).ok());
  std::ifstream in(path);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "1 2");
  EXPECT_EQ(line2, "3 4");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rankjoin
