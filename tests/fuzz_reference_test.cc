// Randomized and exhaustive cross-checks of the optimized kernels
// against naive reference implementations, direct validation of the
// prefix-filtering completeness theory the joins rest on, and a
// differential test of every join algorithm against brute force on
// adversarial datasets.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/similarity_join.h"
#include "data/generator.h"
#include "jaccard/jaccard.h"
#include "jaccard/jaccard_join.h"
#include "join/cluster.h"
#include "join/cluster_join.h"
#include "join/distance_policy.h"
#include "join/vj_nl.h"
#include "ranking/footrule.h"
#include "ranking/prefix.h"
#include "ranking/reorder.h"
#include "tests/test_util.h"

namespace rankjoin {
namespace {

/// Naive Footrule: dense rank vectors over the union domain.
uint32_t NaiveFootrule(const Ranking& a, const Ranking& b) {
  std::unordered_set<ItemId> domain(a.items().begin(), a.items().end());
  domain.insert(b.items().begin(), b.items().end());
  uint32_t distance = 0;
  for (ItemId item : domain) {
    int ra = a.RankOf(item);
    int rb = b.RankOf(item);
    if (ra < 0) ra = a.k();
    if (rb < 0) rb = b.k();
    distance += static_cast<uint32_t>(std::abs(ra - rb));
  }
  return distance;
}

/// Naive overlap via hash set.
int NaiveOverlap(const Ranking& a, const Ranking& b) {
  std::unordered_set<ItemId> in_a(a.items().begin(), a.items().end());
  int overlap = 0;
  for (ItemId item : b.items()) overlap += in_a.count(item) > 0;
  return overlap;
}

Ranking RandomRanking(RankingId id, int k, uint32_t domain, Rng& rng) {
  std::vector<ItemId> items;
  std::unordered_set<ItemId> seen;
  while (static_cast<int>(items.size()) < k) {
    ItemId item = static_cast<ItemId>(rng.Uniform(domain));
    if (seen.insert(item).second) items.push_back(item);
  }
  return Ranking(id, items);
}

/// Every top-k list over items 0..universe-1, ids 0, 1, ...
std::vector<Ranking> AllTopKLists(int k, uint32_t universe) {
  std::vector<Ranking> lists;
  std::vector<ItemId> current;
  std::vector<bool> used(universe, false);
  auto enumerate = [&](auto&& self) -> void {
    if (static_cast<int>(current.size()) == k) {
      lists.emplace_back(static_cast<RankingId>(lists.size()), current);
      return;
    }
    for (ItemId item = 0; item < universe; ++item) {
      if (used[item]) continue;
      used[item] = true;
      current.push_back(item);
      self(self);
      current.pop_back();
      used[item] = false;
    }
  };
  enumerate(enumerate);
  return lists;
}

TEST(FuzzReferenceTest, FootruleMatchesNaive) {
  Rng rng(9001);
  for (int trial = 0; trial < 3000; ++trial) {
    const int k = 1 + static_cast<int>(rng.Uniform(12));
    const uint32_t domain = static_cast<uint32_t>(k) +
                            static_cast<uint32_t>(rng.Uniform(20));
    Ranking a = RandomRanking(0, k, domain, rng);
    Ranking b = RandomRanking(1, k, domain, rng);
    EXPECT_EQ(FootruleDistance(a, b), NaiveFootrule(a, b))
        << a.ToString() << " vs " << b.ToString();
  }
}

TEST(FuzzReferenceTest, MergeJoinDistanceMatchesNaive) {
  Rng rng(9002);
  ItemOrder identity;
  for (int trial = 0; trial < 3000; ++trial) {
    const int k = 1 + static_cast<int>(rng.Uniform(12));
    const uint32_t domain = static_cast<uint32_t>(k) +
                            static_cast<uint32_t>(rng.Uniform(25));
    Ranking a = RandomRanking(0, k, domain, rng);
    Ranking b = RandomRanking(1, k, domain, rng);
    OrderedRanking oa = MakeOrdered(a, identity);
    OrderedRanking ob = MakeOrdered(b, identity);
    EXPECT_EQ(FootruleDistance(oa, ob), NaiveFootrule(a, b));
    EXPECT_EQ(SetOverlap(oa, ob), NaiveOverlap(a, b));
  }
}

TEST(FuzzReferenceTest, BoundedDistanceConsistentWithFull) {
  Rng rng(9003);
  ItemOrder identity;
  for (int trial = 0; trial < 2000; ++trial) {
    const int k = 2 + static_cast<int>(rng.Uniform(10));
    const uint32_t domain = static_cast<uint32_t>(k) +
                            static_cast<uint32_t>(rng.Uniform(15));
    OrderedRanking a = MakeOrdered(RandomRanking(0, k, domain, rng),
                                   identity);
    OrderedRanking b = MakeOrdered(RandomRanking(1, k, domain, rng),
                                   identity);
    const uint32_t full = FootruleDistance(a, b);
    const uint32_t bound =
        static_cast<uint32_t>(rng.Uniform(MaxFootrule(k) + 1));
    auto bounded = FootruleDistanceBounded(a, b, bound);
    if (full <= bound) {
      ASSERT_TRUE(bounded.has_value());
      EXPECT_EQ(*bounded, full);
    } else {
      EXPECT_FALSE(bounded.has_value());
    }
  }
}

/// Exhaustive completeness of overlap-prefix filtering: for every pair
/// of top-k lists over a small universe, if the pair qualifies for a
/// threshold, their canonical-order prefixes of size OverlapPrefix must
/// intersect. This validates the theory the distributed pipelines rely
/// on, independent of the pipelines themselves.
TEST(FuzzReferenceTest, OverlapPrefixCompletenessExhaustive) {
  const int k = 3;
  const uint32_t universe = 6;
  // All k-permutations of the universe.
  const std::vector<Ranking> lists = AllTopKLists(k, universe);
  ASSERT_EQ(lists.size(), 120u);  // 6*5*4

  // Canonical order: any fixed total order works; use a scrambled one
  // to avoid accidentally aligning with item ids.
  std::unordered_map<ItemId, uint32_t> freq = {{0, 3}, {1, 1}, {2, 5},
                                               {3, 2}, {4, 6}, {5, 4}};
  ItemOrder order = ItemOrder::FromFrequencies(freq);
  auto ordered = MakeOrderedDataset(lists, order);

  for (uint32_t raw_theta = 0; raw_theta < MaxFootrule(k); ++raw_theta) {
    const size_t p = static_cast<size_t>(OverlapPrefix(raw_theta, k));
    for (size_t i = 0; i < ordered.size(); ++i) {
      for (size_t j = i + 1; j < ordered.size(); ++j) {
        if (FootruleDistance(ordered[i], ordered[j]) > raw_theta) continue;
        bool shared = false;
        for (size_t x = 0; x < p && !shared; ++x) {
          for (size_t y = 0; y < p && !shared; ++y) {
            shared = ordered[i].canonical[x].item ==
                     ordered[j].canonical[y].item;
          }
        }
        ASSERT_TRUE(shared)
            << "prefix filter would miss pair (" << i << "," << j
            << ") at raw_theta " << raw_theta;
      }
    }
  }
}

/// Same exhaustive completeness for the ordered prefix (Lemma 4.1),
/// within its validity region raw_theta < k^2/2.
TEST(FuzzReferenceTest, OrderedPrefixCompletenessExhaustive) {
  const int k = 3;
  const uint32_t universe = 6;
  const std::vector<Ranking> lists = AllTopKLists(k, universe);

  for (uint32_t raw_theta = 0; OrderedPrefixApplicable(raw_theta, k);
       ++raw_theta) {
    const int p = OrderedPrefix(raw_theta, k);
    for (size_t i = 0; i < lists.size(); ++i) {
      for (size_t j = i + 1; j < lists.size(); ++j) {
        if (FootruleDistance(lists[i], lists[j]) > raw_theta) continue;
        // The ordered prefix is the best-ranked p items of each list.
        bool shared = false;
        for (int x = 0; x < p && !shared; ++x) {
          for (int y = 0; y < p && !shared; ++y) {
            shared = lists[i].ItemAt(x) == lists[j].ItemAt(y);
          }
        }
        ASSERT_TRUE(shared)
            << "ordered prefix would miss pair at raw_theta " << raw_theta;
      }
    }
  }
}

/// The prefix-penalty bound of the owner rule (local_join.h GroupKey),
/// exhaustively over all pairs of top-4 lists on 6 items: in the group
/// keyed by the pair's first shared prefix item, the policy's
/// PairLowerBound never exceeds the pair's distance. Checked for the
/// overlap prefix at every pair of prefix sizes (the centroid join
/// mixes two), for the ordered prefix of Lemma 4.1 at every size, and
/// for the Jaccard overlap form.
TEST(FuzzReferenceTest, PrefixPenaltyBoundHoldsInTheOwnerGroup) {
  const int k = 4;
  const std::vector<Ranking> lists = AllTopKLists(k, 6);
  std::unordered_map<ItemId, uint32_t> freq = {{0, 3}, {1, 1}, {2, 5},
                                               {3, 2}, {4, 6}, {5, 4}};
  const auto ordered =
      MakeOrderedDataset(lists, ItemOrder::FromFrequencies(freq));

  // Canonical positions of r's prefix entries under (mode, p).
  auto prefix_of = [](const OrderedRanking& r, PrefixMode mode, int p) {
    std::vector<bool> in(r.canonical.size(), false);
    ForEachPrefixEntry(r, mode, p,
                       [&](size_t t, const ItemEntry&) { in[t] = true; });
    return in;
  };
  auto position_of = [](const OrderedRanking& r, ItemId item) {
    uint32_t t = 0;
    while (r.canonical[t].item != item) ++t;
    return t;
  };
  struct Config {
    PrefixMode mode;
    int pa;
    int pb;
  };
  std::vector<Config> configs;
  for (int pa = 1; pa <= k; ++pa) {
    for (int pb = 1; pb <= k; ++pb) {
      configs.push_back({PrefixMode::kOverlap, pa, pb});
    }
    configs.push_back({PrefixMode::kOrdered, pa, pa});
  }

  uint64_t owned_pairs = 0;
  for (size_t i = 0; i < ordered.size(); ++i) {
    for (size_t j = 0; j < ordered.size(); ++j) {
      if (i == j) continue;
      const OrderedRanking& a = ordered[i];
      const OrderedRanking& b = ordered[j];
      const uint32_t footrule = FootruleDistance(a, b);
      const double jaccard = JaccardDistance(a, b);
      for (const Config& c : configs) {
        const std::vector<bool> in_a = prefix_of(a, c.mode, c.pa);
        const std::vector<bool> in_b = prefix_of(b, c.mode, c.pb);
        // The owner: the first item of a's prefix, in canonical order,
        // that b's prefix holds too.
        std::optional<ItemId> owner;
        for (size_t t = 0; t < a.canonical.size() && !owner; ++t) {
          const ItemId item = a.canonical[t].item;
          for (size_t u = 0; u < b.canonical.size(); ++u) {
            if (in_a[t] && in_b[u] && b.canonical[u].item == item) {
              owner = item;
            }
          }
        }
        if (!owner) continue;
        ++owned_pairs;
        // The ordered-mode GroupKey carries the (shared) prefix size.
        const GroupKey key{*owner, c.mode, c.pa};
        const uint32_t ka = position_of(a, *owner);
        const uint32_t kb = position_of(b, *owner);
        const int rank_a = a.canonical[ka].rank;
        const int rank_b = b.canonical[kb].rank;
        const auto footrule_lower = FootrulePolicy::PairLowerBound(
            FootrulePolicy::PrefixPenalty(a, ka, key),
            FootrulePolicy::PrefixPenalty(b, kb, key), rank_a, rank_b, k);
        ASSERT_FALSE(FootrulePolicy::Exceeds(footrule_lower, footrule))
            << "pair (" << i << "," << j << ") p=" << c.pa << "/" << c.pb
            << (c.mode == PrefixMode::kOverlap ? " overlap" : " ordered");
        const auto jaccard_lower = JaccardPolicy::PairLowerBound(
            JaccardPolicy::PrefixPenalty(a, ka, key),
            JaccardPolicy::PrefixPenalty(b, kb, key), rank_a, rank_b, k);
        ASSERT_FALSE(JaccardPolicy::Exceeds(jaccard_lower, jaccard))
            << "pair (" << i << "," << j << ") p=" << c.pa << "/" << c.pb;
      }
    }
  }
  EXPECT_GT(owned_pairs, 0u);
}

/// Jaccard prefix completeness, randomized: qualifying pairs must share
/// a canonical prefix token.
TEST(FuzzReferenceTest, JaccardPrefixCompletenessRandom) {
  GeneratorOptions options;
  options.k = 8;
  options.num_rankings = 150;
  options.domain_size = 40;
  options.seed = 9004;
  RankingDataset ds = GenerateDataset(options);
  ItemOrder order =
      ItemOrder::FromFrequencies(CountItemFrequencies(ds.rankings));
  auto ordered = MakeOrderedDataset(ds.rankings, order);
  for (double theta : {0.2, 0.5, 0.8}) {
    const size_t p = static_cast<size_t>(JaccardPrefix(theta, ds.k));
    for (size_t i = 0; i < ordered.size(); ++i) {
      for (size_t j = i + 1; j < ordered.size(); ++j) {
        if (!JaccardQualifies(SetOverlap(ordered[i], ordered[j]), ds.k,
                              theta)) {
          continue;
        }
        bool shared = false;
        for (size_t x = 0; x < p && !shared; ++x) {
          for (size_t y = 0; y < p && !shared; ++y) {
            shared = ordered[i].canonical[x].item ==
                     ordered[j].canonical[y].item;
          }
        }
        ASSERT_TRUE(shared) << "jaccard prefix miss at theta " << theta;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Differential test: every algorithm against brute force.
// ---------------------------------------------------------------------

struct FuzzDataset {
  std::string name;
  RankingDataset ds;
};

/// Seeded datasets built to hit the joins' edge cases: ids at the top of
/// the id range, k = 1, many rankings at distance 0, and clusters of
/// planted near-duplicates.
std::vector<FuzzDataset> AdversarialDatasets() {
  std::vector<FuzzDataset> out;

  // Sparse, descending ids that include the largest RankingId.
  RankingDataset sparse = testutil::SmallSkewedDataset(9101, 120);
  for (size_t i = 0; i < sparse.rankings.size(); ++i) {
    const RankingId id = 4294967295u - static_cast<RankingId>(i) * 65537u;
    sparse.rankings[i] = Ranking(id, sparse.rankings[i].items());
  }
  out.push_back({"sparse-ids", std::move(sparse)});

  // k = 1 over a tiny domain: pairs qualify exactly when they share
  // their single item.
  RankingDataset k1;
  k1.k = 1;
  Rng rng(9102);
  for (RankingId id = 0; id < 60; ++id) {
    k1.rankings.emplace_back(id, std::vector<ItemId>{
                                     static_cast<ItemId>(rng.Uniform(7))});
  }
  out.push_back({"k1", std::move(k1)});

  // All rankings identical: every pair is at distance 0, and every
  // prefix item is shared by every pair.
  RankingDataset same;
  same.k = 6;
  for (RankingId id = 0; id < 25; ++id) {
    same.rankings.emplace_back(id * 3 + 1,
                               std::vector<ItemId>{8, 3, 5, 1, 9, 2});
  }
  out.push_back({"identical", std::move(same)});

  // Dense clusters of perturbed and exact copies.
  GeneratorOptions dup;
  dup.k = 6;
  dup.num_rankings = 150;
  dup.domain_size = 40;
  dup.near_duplicate_rate = 0.5;
  dup.exact_duplicate_rate = 0.1;
  dup.max_perturbations = 2;
  dup.seed = 9103;
  out.push_back({"near-dups", GenerateDataset(dup)});
  return out;
}

/// Normalized Footrule threshold whose raw value is exactly `raw`.
double ThetaForRaw(uint32_t raw, int k) {
  return static_cast<double>(raw) / static_cast<double>(MaxFootrule(k));
}

/// Asserts `result` holds exactly `expected`, each pair once.
void ExpectExactPairs(const Result<JoinResult>& result,
                      const std::set<ResultPair>& expected,
                      const std::string& what) {
  ASSERT_TRUE(result.ok()) << what << ": " << result.status();
  const std::set<ResultPair> got = testutil::PairSet(result->pairs);
  EXPECT_EQ(got, expected) << what;
  EXPECT_EQ(result->pairs.size(), got.size())
      << what << ": a pair was emitted more than once";
  EXPECT_EQ(result->stats.result_pairs, result->pairs.size()) << what;
}

TEST(FuzzReferenceTest, EveryFootruleAlgorithmMatchesBruteForce) {
  minispark::Context ctx(testutil::TestCluster(3, 5));
  for (const FuzzDataset& fd : AdversarialDatasets()) {
    const int k = fd.ds.k;
    const uint32_t raw_c = RawThreshold(0.05, k);
    // theta = 0, a mid value, the prefix-filter limit of VJ, and the
    // limit of CL's enlarged centroid threshold theta + 2*theta_c.
    for (double theta :
         {0.0, 0.3, ThetaForRaw(MaxFootrule(k) - 1, k),
          ThetaForRaw(MaxFootrule(k) - 1 - 2 * raw_c, k)}) {
      const std::set<ResultPair> expected = testutil::Truth(fd.ds, theta);
      for (Algorithm algorithm :
           {Algorithm::kVJ, Algorithm::kVJNL, Algorithm::kCL,
            Algorithm::kCLP, Algorithm::kVSmart, Algorithm::kAuto}) {
        SimilarityJoinConfig config;
        config.algorithm = algorithm;
        config.theta = theta;
        config.theta_c = std::min(0.05, theta);
        // A tiny delta splits every posting list, so CL-P runs its
        // chunk self-joins and chunk-pair R-S joins.
        config.delta = 3;
        if ((algorithm == Algorithm::kCL || algorithm == Algorithm::kCLP) &&
            !config.Validate(k).ok()) {
          continue;  // theta + 2*theta_c reaches the disjoint distance
        }
        ExpectExactPairs(RunSimilarityJoin(&ctx, fd.ds, config), expected,
                         fd.name + " " + AlgorithmName(algorithm) +
                             " theta=" + std::to_string(theta));
      }
    }
  }
}

/// CL's expansion emits a pair only from its owner cluster pair
/// (docs/ALGORITHMS.md §5). Overlapping clusters give a pair several
/// routes, so on the datasets of exact and near copies every variant
/// that changes the clusters or the centroid-join thresholds must still
/// return each pair exactly once.
TEST(FuzzReferenceTest, ClusterJoinEmitsEachPairOnceUnderOverlap) {
  testutil::ScopedEnv trace_env("RANKJOIN_TRACE_LEVEL", "counters");
  const std::vector<std::pair<std::string, std::function<void(ClOptions*)>>>
      variants = {
          {"default", [](ClOptions*) {}},
          {"resolve_overlaps", [](ClOptions* o) { o->resolve_overlaps = true; }},
          {"no_singleton_optimization",
           [](ClOptions* o) { o->singleton_optimization = false; }},
          {"no_upper_shortcut",
           [](ClOptions* o) { o->triangle_upper_shortcut = false; }},
          {"random_centroids",
           [](ClOptions* o) {
             o->clustering_strategy = ClusteringStrategy::kRandomCentroids;
           }},
      };
  for (const FuzzDataset& fd : AdversarialDatasets()) {
    if (fd.name != "identical" && fd.name != "near-dups") continue;
    const int k = fd.ds.k;
    const double theta_c = 0.05;
    const uint32_t raw_c = RawThreshold(theta_c, k);

    // The clusters really overlap: some ranking lies in two of them.
    {
      minispark::Context ctx(testutil::TestCluster(3, 5));
      const ItemOrder order =
          ItemOrder::FromFrequencies(CountItemFrequencies(fd.ds.rankings));
      const std::vector<OrderedRanking> ordered =
          MakeOrderedDataset(fd.ds.rankings, order);
      std::vector<const OrderedRanking*> all;
      for (const OrderedRanking& r : ordered) all.push_back(&r);
      internal::SelfJoinSpec spec;
      spec.raw_theta = raw_c;
      spec.k = k;
      spec.num_partitions = 5;
      spec.prefix_mode = PrefixMode::kOverlap;
      JoinStats stats;
      const Clustering clustering = RunClusteringPhase(&ctx, all, spec, &stats);
      std::unordered_map<RankingId, int> clusters_of;
      for (RankingId c : clustering.centroids) ++clusters_of[c];
      for (const ClusterPair& cp : clustering.pairs) ++clusters_of[cp.member];
      int most = 0;
      for (const auto& [id, count] : clusters_of) most = std::max(most, count);
      EXPECT_GE(most, 2) << fd.name;
    }

    for (double theta :
         {0.3, ThetaForRaw(MaxFootrule(k) - 1 - 2 * raw_c, k)}) {
      const std::set<ResultPair> expected = testutil::Truth(fd.ds, theta);
      for (const auto& [name, apply] : variants) {
        minispark::Context ctx(testutil::TestCluster(3, 5));
        ClOptions options;
        options.theta = theta;
        options.theta_c = theta_c;
        apply(&options);
        ExpectExactPairs(RunClusterJoin(&ctx, fd.ds, options), expected,
                         fd.name + " cl " + name +
                             " theta=" + std::to_string(theta));
        if (fd.name == "near-dups" && name == "default") {
          const auto snapshot = ctx.counters().Snapshot();
          const std::map<std::string, uint64_t> counters(snapshot.begin(),
                                                         snapshot.end());
          EXPECT_GT(counters.at("cl.expansion.owner_skipped"), 0u)
              << "theta=" << theta;
        }
      }
    }
  }
}

TEST(FuzzReferenceTest, OrderedPrefixModeMatchesBruteForce) {
  minispark::Context ctx(testutil::TestCluster(3, 5));
  for (const FuzzDataset& fd : AdversarialDatasets()) {
    const int k = fd.ds.k;
    // Lemma 4.1 holds for raw_theta < k^2/2; the last such value is the
    // ordered prefix's limit.
    uint32_t limit = 0;
    while (OrderedPrefixApplicable(limit + 1, k)) ++limit;
    for (uint32_t raw : {0u, limit / 2, limit}) {
      const double theta = ThetaForRaw(raw, k);
      const std::set<ResultPair> expected = testutil::Truth(fd.ds, theta);
      VjOptions options;
      options.theta = theta;
      options.reorder_by_frequency = false;
      options.prefix_mode = PrefixMode::kOrdered;
      const std::string what =
          fd.name + " ordered raw_theta=" + std::to_string(raw);
      ExpectExactPairs(RunVjJoin(&ctx, fd.ds, options), expected,
                       what + " vj");
      ExpectExactPairs(RunVjNlJoin(&ctx, fd.ds, options), expected,
                       what + " vj-nl");
    }
  }
}

TEST(FuzzReferenceTest, JaccardJoinsMatchBruteForce) {
  minispark::Context ctx(testutil::TestCluster(3, 5));
  for (const FuzzDataset& fd : AdversarialDatasets()) {
    for (double theta : {0.0, 0.3, 0.99, 0.899}) {
      std::set<ResultPair> expected =
          testutil::PairSet(JaccardBruteForceJoin(fd.ds, theta).pairs);
      JaccardJoinOptions options;
      options.theta = theta;
      options.theta_c = std::min(0.05, theta);
      const std::string what =
          fd.name + " jaccard theta=" + std::to_string(theta);
      ExpectExactPairs(RunJaccardVjJoin(&ctx, fd.ds, options), expected,
                       what + " vj");
      if (theta + 2 * options.theta_c < 1.0) {
        ExpectExactPairs(RunJaccardClusterJoin(&ctx, fd.ds, options),
                         expected, what + " cl");
      }
    }
  }
}

}  // namespace
}  // namespace rankjoin
