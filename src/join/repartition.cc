#include "join/repartition.h"

#include <algorithm>

#include "common/logging.h"
#include "join/stat_slots.h"

namespace rankjoin {
namespace {

/// A sub-partition of one posting list (Algorithm 3): the secondary key
/// plus the postings assigned to it.
struct Chunk {
  uint32_t key = 0;
  std::vector<PrefixPosting> postings;
};

}  // namespace

// Chunk crosses two shuffles (the composite-key spread and the chunk
// self-join) and is not trivially copyable, so it needs its own Serde
// for the spill path (see minispark/serde.h). Field-wise delegation:
// the postings vector takes the POD bulk path.
namespace minispark {

template <>
struct Serde<Chunk> {
  static size_t Size(const Chunk& c) {
    return Serde<uint32_t>::Size(c.key) +
           Serde<std::vector<PrefixPosting>>::Size(c.postings);
  }

  static void Write(const Chunk& c, std::string* out) {
    Serde<uint32_t>::Write(c.key, out);
    Serde<std::vector<PrefixPosting>>::Write(c.postings, out);
  }

  static void Read(const char** p, const char* end, Chunk* out) {
    Serde<uint32_t>::Read(p, end, &out->key);
    Serde<std::vector<PrefixPosting>>::Read(p, end, &out->postings);
  }
};

}  // namespace minispark

minispark::Dataset<ScoredPair> JoinGroups(
    const minispark::Dataset<PostingGroup>& groups, LocalJoinFn local_join,
    JoinStats* stats) {
  return MapPartitionsWithStats(
      groups,
      [local_join](const std::vector<PostingGroup>& part, JoinStats* local) {
        std::vector<ScoredPair> out;
        for (const PostingGroup& group : part) {
          local_join(group.first, group.second, &out, local);
        }
        return out;
      },
      "joinGroups", stats);
}

minispark::Dataset<ScoredPair> JoinGroupsWithRepartitioning(
    const minispark::Dataset<PostingGroup>& groups, uint64_t delta,
    int num_partitions, LocalJoinFn local_join, LocalRsJoinFn rs_join,
    JoinStats* stats) {
  if (delta == 0) return JoinGroups(groups, std::move(local_join), stats);

  // Materialize the posting lists and measure the longest: Algorithm 3
  // only splits lists longer than delta, so without one the split stages
  // would run over empty data. No Cache() pin yet — when nothing splits,
  // the groups have a single consumer (MS007).
  uint64_t max_list = 0;
  for (const auto& part : groups.partitions()) {
    for (const PostingGroup& g : part) {
      max_list = std::max<uint64_t>(max_list, g.second.size());
    }
  }
  // The CL-P / repartitioning knobs of Algorithm 3, published globally
  // (not per scope): how many oversized posting lists were split and how
  // many chunk-pair R-S joins that cost (below).
  minispark::CounterRegistry& counters = groups.context()->counters();
  if (max_list <= delta) {
    counters.Add("repartition.lists_split", 0);
    counters.Add("repartition.chunk_pair_joins", 0);
    return JoinGroups(groups, std::move(local_join), stats);
  }
  // The grouped index feeds both the small and the large split below —
  // pin it so neither re-runs its chain.
  groups.Cache();

  const int wide = std::max(1, num_partitions * 2);

  // Split the inverted index into small and large lists (I_<=delta and
  // I_>delta in Algorithm 3).
  minispark::Dataset<PostingGroup> small = groups.Filter(
      [delta](const PostingGroup& g) { return g.second.size() <= delta; },
      "repartition/small");
  minispark::Dataset<PostingGroup> large = groups.Filter(
      [delta](const PostingGroup& g) { return g.second.size() > delta; },
      "repartition/large");
  const uint64_t lists_split = large.Count();
  stats->lists_repartitioned += lists_split;
  counters.Add("repartition.lists_split", lists_split);

  minispark::Dataset<ScoredPair> small_results =
      JoinGroups(small, local_join, stats);

  // Split each large list into sub-partitions of at most delta postings,
  // tagged with a secondary key.
  minispark::Dataset<std::pair<ItemId, Chunk>> chunks = large.FlatMap(
      [delta](const PostingGroup& g) {
        const size_t num_chunks =
            (g.second.size() + delta - 1) / static_cast<size_t>(delta);
        std::vector<std::pair<ItemId, Chunk>> out(num_chunks);
        for (size_t c = 0; c < num_chunks; ++c) {
          out[c].first = g.first;
          out[c].second.key = static_cast<uint32_t>(c);
        }
        // Round-robin assignment keeps the sub-partitions balanced (the
        // paper assigns a random secondary key; the distribution of work
        // is the same and this stays deterministic).
        for (size_t i = 0; i < g.second.size(); ++i) {
          out[i % num_chunks].second.postings.push_back(g.second[i]);
        }
        return out;
      },
      "repartition/split");
  // The chunks feed three shuffles (the composite-key spread plus both
  // sides of the chunk-pair self-join) — materialize them exactly once.
  chunks.Cache();

  // Self-join every sub-partition, spread over (item, secondary key).
  minispark::Dataset<std::pair<std::pair<ItemId, uint32_t>, Chunk>>
      by_composite = chunks.Map(
          [](const std::pair<ItemId, Chunk>& c) {
            return std::pair<std::pair<ItemId, uint32_t>, Chunk>(
                {c.first, c.second.key}, c.second);
          },
          "repartition/compositeKey");
  auto spread =
      minispark::PartitionByKey(by_composite, wide, "repartition/spread");
  minispark::Dataset<ScoredPair> chunk_self_results = MapPartitionsWithStats(
      spread,
      [local_join](
          const std::vector<std::pair<std::pair<ItemId, uint32_t>, Chunk>>&
              part,
          JoinStats* local) {
        std::vector<ScoredPair> out;
        for (const auto& kv : part) {
          local_join(kv.first.first, kv.second.postings, &out, local);
        }
        return out;
      },
      "repartition/chunkSelfJoin", stats);

  // Spark-style self-join of the sub-partitions on the item id; every
  // ordered pair of distinct secondary keys is processed by the R-S join.
  auto chunk_pairs =
      minispark::Join(chunks, chunks, wide, "repartition/chunkPairs");
  auto ordered_pairs = chunk_pairs.Filter(
      [](const std::pair<ItemId, std::pair<Chunk, Chunk>>& jp) {
        return jp.second.first.key < jp.second.second.key;
      },
      "repartition/orderPairs");
  const uint64_t pair_joins = ordered_pairs.Count();
  stats->chunk_pair_joins += pair_joins;
  counters.Add("repartition.chunk_pair_joins", pair_joins);
  minispark::Dataset<ScoredPair> chunk_rs_results = MapPartitionsWithStats(
      ordered_pairs,
      [rs_join](
          const std::vector<std::pair<ItemId, std::pair<Chunk, Chunk>>>& part,
          JoinStats* local) {
        std::vector<ScoredPair> out;
        for (const auto& jp : part) {
          rs_join(jp.first, jp.second.first.postings,
                  jp.second.second.postings, &out, local);
        }
        return out;
      },
      "repartition/chunkRsJoin", stats);

  return minispark::Union(
      minispark::Union(small_results, chunk_self_results,
                       "repartition/unionSelf"),
      chunk_rs_results, "repartition/unionRs");
}

}  // namespace rankjoin
