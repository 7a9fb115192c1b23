// Micro-benchmarks (google-benchmark) for the kernels on the join inner
// loops: Footrule distance (plain, verification record, bounded in cache
// and over pairs gathered from posting groups), prefix-size math, Zipf
// sampling, reordering, and the per-group local joins.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "data/generator.h"
#include "join/distance_policy.h"
#include "join/local_join.h"
#include "ranking/footrule.h"
#include "ranking/prefix.h"
#include "ranking/reorder.h"

namespace rankjoin {
namespace {

RankingDataset MakeData(int k, size_t n) {
  GeneratorOptions options;
  options.k = k;
  options.num_rankings = n;
  options.domain_size = static_cast<uint32_t>(k) * 30;
  options.seed = 7;
  return GenerateDataset(options);
}

void BM_FootruleDistancePlain(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  RankingDataset ds = MakeData(k, 256);
  size_t i = 0;
  for (auto _ : state) {
    const Ranking& a = ds.rankings[i % ds.size()];
    const Ranking& b = ds.rankings[(i + 1) % ds.size()];
    benchmark::DoNotOptimize(FootruleDistance(a, b));
    ++i;
  }
}
BENCHMARK(BM_FootruleDistancePlain)->Arg(10)->Arg(25);

void BM_FootruleDistanceRecord(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  RankingDataset ds = MakeData(k, 256);
  auto ordered = MakeOrderedDataset(ds.rankings, ItemOrder());
  size_t i = 0;
  for (auto _ : state) {
    const OrderedRanking& a = ordered[i % ordered.size()];
    const OrderedRanking& b = ordered[(i + 1) % ordered.size()];
    benchmark::DoNotOptimize(FootruleDistance(a, b));
    ++i;
  }
}
BENCHMARK(BM_FootruleDistanceRecord)->Arg(10)->Arg(25);

/// In cache: 256 rankings, consecutive pairs. Args: theta*100, k.
void BM_FootruleDistanceBounded(benchmark::State& state) {
  const int k = static_cast<int>(state.range(1));
  RankingDataset ds = MakeData(k, 256);
  auto ordered = MakeOrderedDataset(ds.rankings, ItemOrder());
  const uint32_t bound = RawThreshold(0.01 * state.range(0), k);
  size_t i = 0;
  for (auto _ : state) {
    const OrderedRanking& a = ordered[i % ordered.size()];
    const OrderedRanking& b = ordered[(i + 1) % ordered.size()];
    benchmark::DoNotOptimize(FootruleDistanceBounded(a, b, bound));
    ++i;
  }
}
BENCHMARK(BM_FootruleDistanceBounded)
    ->Args({10, 10})
    ->Args({40, 10})
    ->Args({40, 25});

/// Gathered: the pairs a nested-loop group join verifies, in the order it
/// meets them, over a 40k-ranking DBLP-like dataset (vocabulary scaled
/// with k) ordered by item frequency. The groups are its overlap-prefix
/// posting lists at theta 0.4, in a seeded random order, each cut to
/// 1,024 postings, until 1M pairs are gathered. The two rankings of a
/// pair lie anywhere in the ordered dataset, so this row pays the memory
/// traffic of a join's verification that the in-cache row above does not.
void BM_VerifyGathered(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  GeneratorOptions options = DblpLikeOptions();
  options.k = k;
  options.num_rankings = 40000;
  options.domain_size = 200 * static_cast<uint32_t>(k);
  const RankingDataset ds = GenerateDataset(options);
  const ItemOrder order =
      ItemOrder::FromFrequencies(CountItemFrequencies(ds.rankings));
  const std::vector<OrderedRanking> ordered =
      MakeOrderedDataset(ds.rankings, order);
  const uint32_t raw_theta = RawThreshold(0.4, k);
  const size_t prefix = static_cast<size_t>(OverlapPrefix(raw_theta, k));

  std::unordered_map<ItemId, std::vector<const OrderedRanking*>> lists;
  for (const OrderedRanking& r : ordered) {
    for (size_t t = 0; t < prefix; ++t) {
      lists[r.canonical[t].item].push_back(&r);
    }
  }
  std::vector<ItemId> keys;
  for (const auto& [item, list] : lists) keys.push_back(item);
  std::sort(keys.begin(), keys.end());
  Rng rng(5);
  rng.Shuffle(keys);
  constexpr size_t kMaxList = 1024;
  constexpr size_t kPairs = 1'000'000;
  std::vector<std::pair<const OrderedRanking*, const OrderedRanking*>> pairs;
  for (ItemId item : keys) {
    const std::vector<const OrderedRanking*>& list = lists[item];
    const size_t n = std::min(list.size(), kMaxList);
    for (size_t i = 0; i + 1 < n && pairs.size() < kPairs; ++i) {
      for (size_t j = i + 1; j < n && pairs.size() < kPairs; ++j) {
        pairs.emplace_back(list[i], list[j]);
      }
    }
    if (pairs.size() >= kPairs) break;
  }

  uint64_t passed = 0;
  for (auto _ : state) {
    for (const auto& [a, b] : pairs) {
      passed += FootruleDistanceBounded(*a, *b, raw_theta).has_value();
    }
  }
  benchmark::DoNotOptimize(passed);
  state.counters["pairs"] = static_cast<double>(pairs.size());
  state.counters["ns_per_verify"] = benchmark::Counter(
      static_cast<double>(pairs.size()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_VerifyGathered)->Arg(10)->Arg(25)->Unit(benchmark::kMillisecond);

void BM_PrefixMath(benchmark::State& state) {
  uint32_t t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(OverlapPrefix(t % 109 + 1, 10));
    benchmark::DoNotOptimize(OrderedPrefix(t % 49 + 1, 10));
    ++t;
  }
}
BENCHMARK(BM_PrefixMath);

void BM_ZipfSample(benchmark::State& state) {
  ZipfSampler zipf(static_cast<uint64_t>(state.range(0)), 0.9);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
}
BENCHMARK(BM_ZipfSample)->Arg(1000)->Arg(100000);

void BM_MakeOrdered(benchmark::State& state) {
  RankingDataset ds = MakeData(10, 512);
  ItemOrder order =
      ItemOrder::FromFrequencies(CountItemFrequencies(ds.rankings));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MakeOrdered(ds.rankings[i % ds.size()], order));
    ++i;
  }
}
BENCHMARK(BM_MakeOrdered);

/// One posting-list group of the given size, shared key item 0.
std::pair<std::vector<OrderedRanking>, std::vector<PrefixPosting>>
MakeGroup(size_t n, int k) {
  Rng rng(11);
  std::vector<Ranking> rankings;
  for (size_t i = 0; i < n; ++i) {
    std::vector<ItemId> items{0};
    while (static_cast<int>(items.size()) < k) {
      ItemId candidate = static_cast<ItemId>(1 + rng.Uniform(60));
      bool seen = false;
      for (ItemId item : items) seen |= item == candidate;
      if (!seen) items.push_back(candidate);
    }
    rng.Shuffle(items);
    rankings.emplace_back(static_cast<RankingId>(i), items);
  }
  auto backing = MakeOrderedDataset(rankings, ItemOrder());
  std::vector<PrefixPosting> group;
  for (const OrderedRanking& r : backing) {
    uint16_t key_rank = 0;
    for (uint16_t rank = 0; rank < r.k; ++rank) {
      if (r.lanes[rank] == 0) key_rank = rank;
    }
    group.push_back(PrefixPosting{r.id, key_rank, false, &r});
  }
  return {std::move(backing), std::move(group)};
}

void BM_LocalNestedLoopJoin(benchmark::State& state) {
  auto [backing, group] = MakeGroup(static_cast<size_t>(state.range(0)), 10);
  LocalJoinOptions options;
  options.raw_theta = RawThreshold(0.2, 10);
  options.prefix_size = OverlapPrefix(options.raw_theta, 10);
  for (auto _ : state) {
    std::vector<ScoredPair> out;
    JoinStats stats;
    LocalNestedLoopJoin(group, options, &out, &stats);
    benchmark::DoNotOptimize(out);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LocalNestedLoopJoin)->Range(64, 1024)->Complexity();

void BM_LocalPrefixJoin(benchmark::State& state) {
  auto [backing, group] = MakeGroup(static_cast<size_t>(state.range(0)), 10);
  LocalJoinOptions options;
  options.raw_theta = RawThreshold(0.2, 10);
  options.prefix_size = OverlapPrefix(options.raw_theta, 10);
  for (auto _ : state) {
    std::vector<ScoredPair> out;
    JoinStats stats;
    LocalPrefixJoin(group, options, &out, &stats);
    benchmark::DoNotOptimize(out);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LocalPrefixJoin)->Range(64, 1024)->Complexity();

/// The pipelines' kernel: the same prefix-index join over the same
/// groups, keyed by the groups' item, so the owner rule and the
/// prefix-penalty bound run (local_join.h GroupKey). Item 0 comes first
/// in canonical order here, so every pair is owned and nothing is
/// bounded away: the row prices the keyed bookkeeping per candidate.
void BM_OwnedGroupJoin(benchmark::State& state) {
  auto [backing, group] = MakeGroup(static_cast<size_t>(state.range(0)), 10);
  const uint32_t raw_theta = RawThreshold(0.2, 10);
  const int prefix_size = OverlapPrefix(raw_theta, 10);
  uint64_t candidates = 0;
  for (auto _ : state) {
    std::vector<ScoredPair> out;
    JoinStats stats;
    PrefixIndexJoin<FootrulePolicy>(group, raw_theta, prefix_size,
                                    /*position_filter=*/true, &out, &stats,
                                    GroupKey{/*item=*/0});
    candidates += stats.candidates;
    benchmark::DoNotOptimize(out);
  }
  state.counters["ns_per_candidate"] = benchmark::Counter(
      static_cast<double>(candidates),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_OwnedGroupJoin)->Range(64, 1024)->Complexity();

}  // namespace
}  // namespace rankjoin

BENCHMARK_MAIN();
