#ifndef RANKJOIN_JOIN_LOCAL_JOIN_H_
#define RANKJOIN_JOIN_LOCAL_JOIN_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "join/stats.h"
#include "ranking/prefix.h"
#include "ranking/ranking.h"

namespace rankjoin {

/// One element of a posting list after the prefix flat-map: a ranking
/// that contains the list's key item in its prefix.
///
/// The `ranking` pointer refers into the vector of OrderedRankings that
/// the pipeline ordered and holds for the whole join (vj.h OrderDataset),
/// so a posting carries no ranking data; postings are what travels
/// through shuffles.
struct PrefixPosting {
  RankingId id = 0;
  /// Original rank of the key item inside this ranking — lets the
  /// nested-loop variant apply the position filter without a lookup.
  uint16_t key_rank = 0;
  /// Centroid type marker used by the CL joining phase (Lemma 5.3):
  /// true when the ranking is the representative of a singleton cluster.
  bool singleton = false;
  const OrderedRanking* ranking = nullptr;
};

/// Options shared by the per-partition join kernels.
struct LocalJoinOptions {
  /// Raw (integer) distance threshold.
  uint32_t raw_theta = 0;
  /// Prefix size used when (re-)indexing rankings inside a group.
  int prefix_size = 1;
  /// Apply the rank-difference position filter (paper Section 4).
  bool position_filter = true;
};

/// The posting list a group join runs over: its key item, and how
/// EmitPrefix cut the postings' prefixes. Passing one to the templates
/// below turns on the owner rule and the prefix-penalty bound.
///
/// Owner rule. Two rankings meet in every posting list keyed by an
/// item of both prefixes. Only the list keyed by the FIRST such item in
/// the global canonical order owns the pair; every other list skips it,
/// so a pair is verified at most once and the pipelines need no
/// distinct after the group joins.
///
/// Prefix-penalty bound. Let x be the key and y an item of a's prefix
/// that precedes x in canonical order. In the group that owns (a, b), y
/// is not in b's prefix, or it would be an earlier shared prefix item.
/// Under the overlap prefix y is not in b at all: it would precede x in
/// b's canonical order too, and everything before x in b lies in b's
/// prefix. So y costs k - rank_a(y) of Footrule distance. Under the
/// ordered prefix (rank < p), y is missing from b or ranked >= p there,
/// and costs at least p - rank_a(y). With pen(r) the sum of these costs
/// over r's prefix entries before x, every pair of the owner group has
///
///   d(a, b) >= pen(a) + pen(b) + |rank_a(x) - rank_b(x)|,
///
/// whatever the two prefix sizes (the CL centroid join mixes them).
/// The policy's PrefixPenalty/PairLowerBound (distance_policy.h) supply
/// pen and the bound. A pair over the bound is either owned by another
/// group or too far apart, so it is dropped before either ranking is
/// read. The keyed kernels visit the postings in ascending penalty, so
/// each row of the loop stops once the penalties alone exceed the
/// largest threshold.
struct GroupKey {
  ItemId item = 0;
  PrefixMode mode = PrefixMode::kOverlap;
  /// kOrdered only: a prefix is the entries ranked below this.
  int prefix_size = 0;
};

/// Calls `fn(t, entry)` for every prefix entry of `ranking`, t being
/// its canonical position: the first `prefix_size` canonical entries
/// under kOverlap, the entries ranked below `prefix_size` under
/// kOrdered (Lemma 4.1), in canonical order either way.
template <typename Fn>
void ForEachPrefixEntry(const OrderedRanking& ranking, PrefixMode mode,
                        int prefix_size, Fn&& fn) {
  const std::vector<ItemEntry>& entries = ranking.canonical;
  if (mode == PrefixMode::kOverlap) {
    const size_t p =
        std::min(static_cast<size_t>(prefix_size), entries.size());
    for (size_t t = 0; t < p; ++t) fn(t, entries[t]);
    return;
  }
  for (size_t t = 0; t < entries.size(); ++t) {
    if (entries[t].rank < prefix_size) fn(t, entries[t]);
  }
}

/// VJ-style per-group join (paper Section 4): rankings in `group` all
/// share the key item; their prefixes are indexed with an in-memory
/// inverted index, candidates are generated by probing it, the position
/// filter is applied per shared item, and survivors are verified.
/// Emits every qualifying pair of the group into `out` (smaller id
/// first).
void LocalPrefixJoin(const std::vector<PrefixPosting>& group,
                     const LocalJoinOptions& options,
                     std::vector<ScoredPair>* out, JoinStats* stats);

/// VJ-NL per-group join (paper Section 4.1): iterator-style nested loop
/// over all ordered pairs of the group, applying the position filter on
/// the key item's ranks before verification; every pair that passes it
/// is verified. No index is built — the Spark-friendly variant.
void LocalNestedLoopJoin(const std::vector<PrefixPosting>& group,
                         const LocalJoinOptions& options,
                         std::vector<ScoredPair>* out, JoinStats* stats);

/// R-S nested-loop join between two sub-partitions of one posting list
/// (paper Section 6 / Algorithm 3): pairs one side against the other,
/// with the position filter on the shared key item. A ranking present
/// on both sides is never paired with itself.
void LocalNestedLoopJoinRS(const std::vector<PrefixPosting>& left,
                           const std::vector<PrefixPosting>& right,
                           const LocalJoinOptions& options,
                           std::vector<ScoredPair>* out, JoinStats* stats);

namespace internal {

/// A posting as a group join visits it. Without a group key only
/// `index` is set and the slots keep the group's order; with one they
/// carry the owner-rule data and are sorted by (penalty, index).
struct GroupSlot {
  /// Position of the posting in its group.
  uint32_t index = 0;
  /// Canonical position of the key item in the posting's ranking.
  uint32_t key_pos = 0;
  /// The policy's PrefixPenalty of the entries before the key.
  uint32_t penalty = 0;
  /// One hashed bit per prefix item before the key: two slots whose
  /// masks are disjoint cannot share such an item.
  uint64_t early_items = 0;
};

inline uint64_t ItemBit(ItemId item) {
  return uint64_t{1} << ((item * 0x9E3779B1u) >> 26);
}

/// True when canonical entry `entry`, which precedes the key, lies in
/// its ranking's prefix. Under kOverlap every entry before the key does.
inline bool InEarlyPrefix(const ItemEntry& entry, const GroupKey& key) {
  return key.mode == PrefixMode::kOverlap ||
         entry.rank < static_cast<uint16_t>(key.prefix_size);
}

template <typename P>
std::vector<GroupSlot> MakeSlots(const std::vector<PrefixPosting>& group,
                                 const std::optional<GroupKey>& key) {
  std::vector<GroupSlot> slots(group.size());
  for (uint32_t i = 0; i < slots.size(); ++i) {
    GroupSlot& slot = slots[i];
    slot.index = i;
    if (!key) continue;
    const OrderedRanking& r = *group[i].ranking;
    while (r.canonical[slot.key_pos].item != key->item) {
      ++slot.key_pos;
      RANKJOIN_DCHECK(slot.key_pos < r.canonical.size())
          << "posting " << r.id << " lacks its group's key";
    }
    for (uint32_t t = 0; t < slot.key_pos; ++t) {
      if (InEarlyPrefix(r.canonical[t], *key)) {
        slot.early_items |= ItemBit(r.canonical[t].item);
      }
    }
    slot.penalty = P::PrefixPenalty(r, slot.key_pos, *key);
  }
  if (key) {
    std::sort(slots.begin(), slots.end(),
              [](const GroupSlot& a, const GroupSlot& b) {
                return a.penalty != b.penalty ? a.penalty < b.penalty
                                              : a.index < b.index;
              });
  }
  return slots;
}

/// The owner rule: true when the prefixes of `a` and `b` share an item
/// that precedes the key, i.e. another group owns the pair.
inline bool SharesEarlierPrefixItem(const OrderedRanking& a,
                                    const GroupSlot& sa,
                                    const OrderedRanking& b,
                                    const GroupSlot& sb,
                                    const GroupKey& key) {
  if ((sa.early_items & sb.early_items) == 0) return false;
  for (uint32_t t = 0; t < sa.key_pos; ++t) {
    const ItemEntry& ea = a.canonical[t];
    if (!InEarlyPrefix(ea, key)) continue;
    for (uint32_t u = 0; u < sb.key_pos; ++u) {
      const ItemEntry& eb = b.canonical[u];
      if (eb.item == ea.item && InEarlyPrefix(eb, key)) return true;
    }
  }
  return false;
}

/// The penalties alone are within `reach`, the largest pair threshold.
/// Monotone in both penalties, so a penalty-sorted loop stops at the
/// first slot that fails it.
template <typename P>
bool WithinReach(const GroupSlot& sa, const GroupSlot& sb,
                 typename P::Distance reach, int k) {
  return !P::Exceeds(P::PairLowerBound(sa.penalty, sb.penalty, 0, 0, k),
                     reach);
}

/// The funnel of one candidate pair of a nested-loop join: prefix-
/// penalty bound, owner rule (both only with a key), position filter,
/// verification. Each candidate lands in exactly one of the counters.
template <typename P, typename Thresholds>
void JoinPair(const PrefixPosting& a, const GroupSlot& sa,
              const PrefixPosting& b, const GroupSlot& sb,
              const Thresholds& thresholds, bool position_filter,
              const std::optional<GroupKey>& key,
              std::vector<ScoredPair>* out, JoinStats* stats) {
  const auto theta = thresholds.For(a, b);
  ++stats->candidates;
  if (key) {
    if (P::Exceeds(P::PairLowerBound(sa.penalty, sb.penalty, a.key_rank,
                                     b.key_rank, a.ranking->k),
                   theta)) {
      ++stats->bound_filtered;
      return;
    }
    if (SharesEarlierPrefixItem(*a.ranking, sa, *b.ranking, sb, *key)) {
      ++stats->owner_skipped;
      return;
    }
  }
  if (position_filter &&
      !P::PositionFilterPasses(a.key_rank, b.key_rank, theta)) {
    ++stats->position_filtered;
    return;
  }
  if (auto d = P::Verify(*a.ranking, *b.ranking, theta, stats)) {
    out->push_back({MakeResultPair(a.id, b.id), *d});
  }
}

}  // namespace internal

/// The kernels above, generic over a distance policy `P`
/// (distance_policy.h). `Thresholds` picks each pair's threshold:
/// UniformThreshold for the self-joins, MixedThresholds for the CL
/// centroid join (Algorithm 1's compute_sim). The Footrule functions
/// above are these templates instantiated with FootrulePolicy and no
/// group key; the pipelines pass the key of the posting list, which
/// applies the owner rule and the penalty bound (see GroupKey).
///
/// Every candidate lands in exactly one counter:
///   candidates == bound_filtered + owner_skipped + position_filtered
///                 + verified.
template <typename P>
void PrefixIndexJoin(const std::vector<PrefixPosting>& group,
                     typename P::Distance theta, int prefix_size,
                     bool position_filter, std::vector<ScoredPair>* out,
                     JoinStats* stats,
                     const std::optional<GroupKey>& key = std::nullopt) {
  const size_t n = group.size();
  if (n < 2) return;
  const std::vector<internal::GroupSlot> slots =
      internal::MakeSlots<P>(group, key);
  const PrefixMode mode = key ? key->mode : PrefixMode::kOverlap;

  // Inverted index over the prefix items of already-processed rankings:
  // item -> (slot, original rank of the item there). Slots are
  // processed in order, so with a key every list is penalty-sorted.
  std::unordered_map<ItemId, std::vector<std::pair<uint32_t, uint16_t>>>
      index;
  // Probe-round bookkeeping, reset lazily via stamps.
  constexpr uint8_t kForeign = 1;  // shares a prefix item before the key
  constexpr uint8_t kDead = 2;     // failed the position filter
  std::vector<uint8_t> flags(n, 0);
  std::vector<uint32_t> stamp(n, 0);
  std::vector<uint32_t> touched;
  uint32_t round = 0;

  for (uint32_t i = 0; i < n; ++i) {
    const internal::GroupSlot& si = slots[i];
    const PrefixPosting& pi = group[si.index];
    const OrderedRanking& ri = *pi.ranking;
    ++round;
    touched.clear();
    ForEachPrefixEntry(ri, mode, prefix_size,
                       [&](size_t t, const ItemEntry& entry) {
      auto it = index.find(entry.item);
      if (it == index.end()) return;
      for (const auto& [j, rank_j] : it->second) {
        if (key && !internal::WithinReach<P>(si, slots[j], theta, ri.k)) {
          break;
        }
        if (stamp[j] != round) {
          stamp[j] = round;
          flags[j] = 0;
          touched.push_back(j);
        }
        if (t < si.key_pos) {
          flags[j] |= kForeign;
        } else if (position_filter &&
                   !P::PositionFilterPasses(entry.rank, rank_j, theta)) {
          // The position filter is a necessary condition over ANY shared
          // item, so one failing item kills the pair outright.
          flags[j] |= kDead;
        }
      }
    });
    // With a key every reached slot is in the key's list, so `touched`
    // holds exactly the pairs the loop reaches before the early stop.
    for (uint32_t j : touched) {
      ++stats->candidates;
      const PrefixPosting& pj = group[slots[j].index];
      if (key && P::Exceeds(P::PairLowerBound(si.penalty, slots[j].penalty,
                                              pi.key_rank, pj.key_rank, ri.k),
                            theta)) {
        ++stats->bound_filtered;
      } else if (flags[j] & kForeign) {
        ++stats->owner_skipped;
      } else if (flags[j] & kDead) {
        ++stats->position_filtered;
      } else if (auto d = P::Verify(ri, *pj.ranking, theta, stats)) {
        out->push_back({MakeResultPair(ri.id, pj.id), *d});
      }
    }
    // Index this ranking's prefix for subsequent probes.
    ForEachPrefixEntry(ri, mode, prefix_size,
                       [&](size_t /*t*/, const ItemEntry& entry) {
                         index[entry.item].push_back({i, entry.rank});
                       });
  }
}

template <typename P, typename Thresholds>
void NestedLoopJoin(const std::vector<PrefixPosting>& group,
                    const Thresholds& thresholds, bool position_filter,
                    std::vector<ScoredPair>* out, JoinStats* stats,
                    const std::optional<GroupKey>& key = std::nullopt) {
  const std::vector<internal::GroupSlot> slots =
      internal::MakeSlots<P>(group, key);
  for (size_t i = 0; i + 1 < slots.size(); ++i) {
    const PrefixPosting& a = group[slots[i].index];
    for (size_t j = i + 1; j < slots.size(); ++j) {
      if (key && !internal::WithinReach<P>(slots[i], slots[j],
                                           thresholds.Max(), a.ranking->k)) {
        break;
      }
      internal::JoinPair<P>(a, slots[i], group[slots[j].index], slots[j],
                            thresholds, position_filter, key, out, stats);
    }
  }
}

template <typename P, typename Thresholds>
void NestedLoopJoinRS(const std::vector<PrefixPosting>& left,
                      const std::vector<PrefixPosting>& right,
                      const Thresholds& thresholds, bool position_filter,
                      std::vector<ScoredPair>* out, JoinStats* stats,
                      const std::optional<GroupKey>& key = std::nullopt) {
  const std::vector<internal::GroupSlot> left_slots =
      internal::MakeSlots<P>(left, key);
  const std::vector<internal::GroupSlot> right_slots =
      internal::MakeSlots<P>(right, key);
  for (const internal::GroupSlot& sa : left_slots) {
    const PrefixPosting& a = left[sa.index];
    for (const internal::GroupSlot& sb : right_slots) {
      if (key && !internal::WithinReach<P>(sa, sb, thresholds.Max(),
                                           a.ranking->k)) {
        break;
      }
      const PrefixPosting& b = right[sb.index];
      if (a.id == b.id) continue;
      internal::JoinPair<P>(a, sa, b, sb, thresholds, position_filter, key,
                            out, stats);
    }
  }
}

}  // namespace rankjoin

#endif  // RANKJOIN_JOIN_LOCAL_JOIN_H_
