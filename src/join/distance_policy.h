#ifndef RANKJOIN_JOIN_DISTANCE_POLICY_H_
#define RANKJOIN_JOIN_DISTANCE_POLICY_H_

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <optional>

#include "jaccard/jaccard.h"
#include "join/local_join.h"
#include "join/stats.h"
#include "join/verify.h"
#include "ranking/footrule.h"
#include "ranking/prefix.h"
#include "ranking/ranking.h"

namespace rankjoin {

/// Compile-time distance policies. The VJ and CL pipelines (vj.h,
/// cluster.h, cluster_join.h) are templates over one of these; CL needs
/// nothing from the distance beyond the metric axioms (paper Section 8),
/// so a policy supplies exactly the distance-specific parts:
///
///   - `Distance`: the threshold/distance type, and `Bound`, the type
///     the triangle-inequality arithmetic runs in;
///   - `Threshold`/`Prefix`: the normalized-theta mapping and the prefix
///     size that makes prefix filtering complete;
///   - `PositionFilterPasses`: the rank-difference filter (a no-op where
///     ranks carry no information);
///   - `PrefixPenalty`/`PairLowerBound`: the prefix-penalty lower bound
///     the keyed group joins apply before verifying (local_join.h
///     GroupKey);
///   - `Verify`: the bounded distance kernel, which counts `verified`
///     and `verify_passed` and returns the pair's score — the value
///     ScoredPair carries — when the pair qualifies; `FromScore` turns a
///     score back into a distance;
///   - `Within`/`Exceeds`/`Guaranteed`: the threshold tests of the
///     direct emission and of the triangle lower/upper bounds.
///
/// Every member is a static inline function, so the pipelines compile
/// to direct calls — no per-pair indirection.

/// Spearman's Footrule over top-k rankings: integer raw distances
/// (paper Section 3), exact integer triangle bounds.
struct FootrulePolicy {
  using Distance = uint32_t;
  /// Signed, so triangle lower bounds like d(ci, cj) - d(ci, m) cannot
  /// wrap.
  using Bound = int64_t;

  static Distance Threshold(double theta, int k) {
    return RawThreshold(theta, k);
  }
  static int Prefix(Distance theta, int k, PrefixMode mode) {
    return mode == PrefixMode::kOverlap ? OverlapPrefix(theta, k)
                                        : OrderedPrefix(theta, k);
  }
  static bool PositionFilterPasses(int rank_a, int rank_b, Distance theta) {
    return rankjoin::PositionFilterPasses(rank_a, rank_b, theta);
  }
  /// The score is the raw Footrule distance itself.
  static std::optional<uint32_t> Verify(const OrderedRanking& a,
                                        const OrderedRanking& b,
                                        Distance theta, JoinStats* stats) {
    return VerifyPair(a, b, theta, stats);
  }
  static Distance FromScore(uint32_t score, int /*k*/) { return score; }
  /// pen of the prefix-penalty bound (see GroupKey): the Footrule cost
  /// of the prefix entries before the key at `key_pos`, which the owner
  /// group's partner lacks (overlap prefix: k - rank each) or ranks
  /// outside its prefix (ordered prefix of size p: p - rank each).
  static uint32_t PrefixPenalty(const OrderedRanking& r, uint32_t key_pos,
                                const GroupKey& key) {
    uint32_t penalty = 0;
    for (uint32_t t = 0; t < key_pos; ++t) {
      const int rank = r.canonical[t].rank;
      if (key.mode == PrefixMode::kOverlap) {
        penalty += static_cast<uint32_t>(r.k - rank);
      } else if (rank < key.prefix_size) {
        penalty += static_cast<uint32_t>(key.prefix_size - rank);
      }
    }
    return penalty;
  }
  /// Lower bound of d(a, b) in the group that owns the pair.
  static Bound PairLowerBound(uint32_t penalty_a, uint32_t penalty_b,
                              int key_rank_a, int key_rank_b, int /*k*/) {
    return static_cast<Bound>(penalty_a) + penalty_b +
           std::abs(key_rank_a - key_rank_b);
  }
  static bool Within(Bound d, Distance theta) {
    return d <= static_cast<Bound>(theta);
  }
  static bool Exceeds(Bound lower, Distance theta) {
    return lower > static_cast<Bound>(theta);
  }
  static bool Guaranteed(Bound upper, Distance theta) {
    return upper <= static_cast<Bound>(theta);
  }
};

/// Jaccard distance over size-k sets (jaccard/jaccard.h; the paper's
/// Section 8 outlook): item ranks are ignored, distances are rationals
/// held as doubles.
struct JaccardPolicy {
  using Distance = double;
  using Bound = double;

  /// Margin for the metric filters: bounds are padded so that double
  /// rounding can only make the filters weaker (more verification),
  /// never unsound.
  static constexpr double kMargin = 1e-9;

  static Distance Threshold(double theta, int /*k*/) { return theta; }
  /// Sets have no rank order, so both modes use the overlap prefix.
  static int Prefix(Distance theta, int k, PrefixMode /*mode*/) {
    return JaccardPrefix(theta, k);
  }
  static bool PositionFilterPasses(int /*rank_a*/, int /*rank_b*/,
                                   Distance /*theta*/) {
    return true;
  }
  /// The score is the pair's OVERLAP: the distance is a rational, and
  /// the overlap plus k reconstructs it exactly.
  static std::optional<uint32_t> Verify(const OrderedRanking& a,
                                        const OrderedRanking& b,
                                        Distance theta, JoinStats* stats) {
    ++stats->verified;
    const int overlap = SetOverlap(a, b);
    if (!JaccardQualifies(overlap, a.k, theta)) return std::nullopt;
    ++stats->verify_passed;
    return static_cast<uint32_t>(overlap);
  }
  static Distance FromScore(uint32_t score, int k) {
    return JaccardDistanceFromOverlap(static_cast<int>(score), k);
  }
  /// In the group that owns a pair, the `key_pos` entries before the
  /// key are all missing from the partner (see GroupKey), so the overlap
  /// is at most k - max(key_pos_a, key_pos_b). Sets use the overlap
  /// prefix only; the ordered mode gets no penalty.
  static uint32_t PrefixPenalty(const OrderedRanking& /*r*/,
                                uint32_t key_pos, const GroupKey& key) {
    return key.mode == PrefixMode::kOverlap ? key_pos : 0;
  }
  /// The distance at that largest overlap; Exceeds pads it by kMargin.
  static Bound PairLowerBound(uint32_t penalty_a, uint32_t penalty_b,
                              int /*key_rank_a*/, int /*key_rank_b*/,
                              int k) {
    return JaccardDistanceFromOverlap(
        k - static_cast<int>(std::max(penalty_a, penalty_b)), k);
  }
  static bool Within(Bound d, Distance theta) { return d <= theta + kMargin; }
  static bool Exceeds(Bound lower, Distance theta) {
    return lower > theta + kMargin;
  }
  static bool Guaranteed(Bound upper, Distance theta) {
    return upper <= theta - kMargin;
  }
};

/// One threshold for every pair (the VJ self-join and CL clustering).
template <typename Distance>
struct UniformThreshold {
  Distance theta{};

  Distance For(const PrefixPosting& /*a*/, const PrefixPosting& /*b*/) const {
    return theta;
  }
  Distance Max() const { return theta; }
};

/// Pair threshold under Lemma 5.3, selected by the singleton flags.
template <typename Distance>
struct MixedThresholds {
  Distance mm{};  // both non-singleton: theta + 2*theta_c
  Distance ms{};  // mixed: theta + theta_c
  Distance ss{};  // both singleton: theta

  /// The enlarged centroid-join thresholds for join threshold `theta`
  /// and clustering threshold `theta_c`. Without the singleton
  /// optimization every pair gets the plain Lemma 5.1 threshold mm.
  static MixedThresholds Enlarged(Distance theta, Distance theta_c,
                                  bool singleton_optimization) {
    MixedThresholds t;
    t.mm = theta + 2 * theta_c;
    t.ms = singleton_optimization ? theta + theta_c : t.mm;
    t.ss = singleton_optimization ? theta : t.mm;
    return t;
  }

  Distance For(const PrefixPosting& a, const PrefixPosting& b) const {
    if (a.singleton && b.singleton) return ss;
    if (a.singleton || b.singleton) return ms;
    return mm;
  }
  /// The largest pair threshold, for the keyed kernels' early stop.
  Distance Max() const { return std::max({mm, ms, ss}); }
};

}  // namespace rankjoin

#endif  // RANKJOIN_JOIN_DISTANCE_POLICY_H_
