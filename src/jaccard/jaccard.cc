#include "jaccard/jaccard.h"

#include <algorithm>

#include "common/logging.h"
#include "ranking/lanes.h"

namespace rankjoin {
namespace {

/// Slack absorbing double rounding on threshold comparisons; far below
/// the minimum spacing of distinct Jaccard values for any practical k.
constexpr double kEpsilon = 1e-9;

}  // namespace

int SetOverlap(const OrderedRanking& a, const OrderedRanking& b) {
  return static_cast<int>(WeighLanes(a, b, LaneWeight::kShared));
}

double JaccardDistanceFromOverlap(int overlap, int k) {
  RANKJOIN_DCHECK(k >= 1);
  RANKJOIN_DCHECK(overlap >= 0 && overlap <= k);
  return 1.0 - static_cast<double>(overlap) /
                   static_cast<double>(2 * k - overlap);
}

double JaccardDistance(const OrderedRanking& a, const OrderedRanking& b) {
  RANKJOIN_DCHECK(a.k == b.k);
  return JaccardDistanceFromOverlap(SetOverlap(a, b), a.k);
}

bool JaccardQualifies(int overlap, int k, double theta) {
  return JaccardDistanceFromOverlap(overlap, k) <= theta + kEpsilon;
}

int JaccardMinOverlap(double theta, int k) {
  // Distance decreases as overlap grows; find the smallest qualifying
  // overlap by scanning (k is small).
  for (int o = 0; o <= k; ++o) {
    if (JaccardQualifies(o, k, theta)) return o;
  }
  return k + 1;  // theta < 0: nothing qualifies
}

int JaccardPrefix(double theta, int k) {
  const int o = JaccardMinOverlap(theta, k);
  RANKJOIN_CHECK(o >= 1) << "prefix filtering needs theta < 1";
  return std::clamp(k - o + 1, 1, k);
}

}  // namespace rankjoin
