#ifndef RANKJOIN_JACCARD_JACCARD_H_
#define RANKJOIN_JACCARD_JACCARD_H_

#include <cstdint>

#include "ranking/ranking.h"

namespace rankjoin {

/// Jaccard-distance support for fixed-size sets — the extension the
/// paper names as future work ("we plan to extend our approach to sets
/// where the Jaccard distance is used", Section 8).
///
/// Rankings double as sets here: the rank information is ignored, and
/// the overlap is the `shared` count of the verification-record kernel
/// that Footrule uses too (ranking/lanes.h), so one record layout
/// serves both distances.
/// The Jaccard distance d(A, B) = 1 - |A∩B| / |A∪B| is a metric
/// (Steinhaus), so the CL framework's triangle-inequality reasoning
/// carries over unchanged.

/// Number of common items of two sets: branch-free SIMD compares of the
/// verification records up to kMaxBlockLanes, O(k log k) above.
int SetOverlap(const OrderedRanking& a, const OrderedRanking& b);

/// Jaccard distance of two size-k sets with overlap `o`:
/// 1 - o / (2k - o).
double JaccardDistanceFromOverlap(int overlap, int k);

/// Jaccard distance of two equal-size sets.
double JaccardDistance(const OrderedRanking& a, const OrderedRanking& b);

/// True if sets with overlap `o` are within distance `theta`
/// (inclusive, with a tiny epsilon so thresholds that exactly hit a
/// representable distance behave intuitively). This single predicate
/// defines qualification everywhere — prefix bound and verification
/// can never disagree.
bool JaccardQualifies(int overlap, int k, double theta);

/// Minimum overlap two size-k sets must share for their Jaccard
/// distance to possibly be <= theta: the closed form is
/// ceil(2k(1-theta) / (2-theta)); computed here by scanning the exact
/// predicate.
int JaccardMinOverlap(double theta, int k);

/// Prefix size for the prefix-filtering framework under Jaccard:
/// k - JaccardMinOverlap + 1, clamped to [1, k]. Requires theta < 1
/// (at theta = 1 disjoint sets qualify and prefix filtering is
/// inapplicable).
int JaccardPrefix(double theta, int k);

}  // namespace rankjoin

#endif  // RANKJOIN_JACCARD_JACCARD_H_
