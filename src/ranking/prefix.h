#ifndef RANKJOIN_RANKING_PREFIX_H_
#define RANKJOIN_RANKING_PREFIX_H_

#include <cstdint>

namespace rankjoin {

/// Which prefix derivation to use (paper Section 4).
enum class PrefixMode {
  /// Overlap-based prefix under the global frequency order — required
  /// when rankings are reordered; the paper's default. The prefix of
  /// size p is the first p entries in canonical order.
  kOverlap,
  /// Ordered prefix of Lemma 4.1 (best-ranked items); slightly tighter
  /// but fixes the prefix to the original top ranks: the prefix of size
  /// p is the entries with rank < p.
  kOrdered,
};

/// Prefix-size derivations for top-k rankings under the Footrule distance
/// (paper Section 4). All thresholds are raw (integer) distances; see
/// RawThreshold() in footrule.h for normalization.

/// Minimum number of common items two top-k rankings must share for
/// their Footrule distance to possibly be <= raw_theta. Derived from the
/// closed form o = ceil(0.5 * (1 + 2k - sqrt(1 + 4*raw_theta))) in [18],
/// computed here exactly in integers: the minimum distance achievable
/// with overlap o is (k-o)*(k-o+1).
int MinOverlap(uint32_t raw_theta, int k);

/// Prefix size based on overlap: p = k - MinOverlap + 1 (clamped to
/// [1, k]). Any two rankings within raw_theta share at least one item in
/// their canonical-order prefixes of this size. Requires raw_theta <
/// MaxFootrule(k); at or beyond that bound disjoint rankings qualify and
/// prefix filtering is inapplicable (MinOverlap would be 0).
int OverlapPrefix(uint32_t raw_theta, int k);

/// Ordered prefix (paper Lemma 4.1): using the ORIGINAL rank order, the
/// first p_o = floor(sqrt(raw_theta / 2)) + 1 items suffice, because two
/// rankings whose top-p items are disjoint have distance at least
/// L(p, k) = 2 * p^2. Only valid for raw_theta < k^2 / 2 (the paper's
/// practical regime); callers should fall back to OverlapPrefix beyond
/// that. Returned value is clamped to [1, k].
int OrderedPrefix(uint32_t raw_theta, int k);

/// True if the ordered-prefix formula's precondition raw_theta < k^2/2
/// holds (paper footnote 3).
bool OrderedPrefixApplicable(uint32_t raw_theta, int k);

}  // namespace rankjoin

#endif  // RANKJOIN_RANKING_PREFIX_H_
