#include "ranking/footrule.h"

#include <cmath>
#include <unordered_map>

#include "common/logging.h"
#include "ranking/lanes.h"

namespace rankjoin {

uint32_t RawThreshold(double theta, int k) {
  RANKJOIN_CHECK(theta >= 0.0);
  // Small epsilon absorbs binary floating error (0.3 * 110 = 33.0000…04).
  const double raw = theta * static_cast<double>(MaxFootrule(k));
  return static_cast<uint32_t>(std::floor(raw + 1e-9));
}

double NormalizeDistance(uint32_t raw, int k) {
  return static_cast<double>(raw) / static_cast<double>(MaxFootrule(k));
}

uint32_t FootruleDistance(const Ranking& a, const Ranking& b) {
  RANKJOIN_DCHECK(a.k() == b.k());
  const int k = a.k();
  std::unordered_map<ItemId, int> rank_in_a;
  rank_in_a.reserve(static_cast<size_t>(k));
  for (int r = 0; r < k; ++r) rank_in_a.emplace(a.ItemAt(r), r);

  uint32_t distance = 0;
  for (int r = 0; r < k; ++r) {
    auto it = rank_in_a.find(b.ItemAt(r));
    if (it == rank_in_a.end()) {
      // Item only in b: |r - k| = k - r.
      distance += static_cast<uint32_t>(k - r);
    } else {
      distance += static_cast<uint32_t>(std::abs(it->second - r));
      rank_in_a.erase(it);  // mark as matched
    }
  }
  // Items only in a.
  for (const auto& [item, r] : rank_in_a) {
    distance += static_cast<uint32_t>(k - r);
  }
  return distance;
}

uint32_t FootruleDistance(const OrderedRanking& a, const OrderedRanking& b) {
  RANKJOIN_DCHECK(a.k == b.k);
  return MaxFootrule(a.k) - 2 * WeighLanes(a, b, LaneWeight::kFootrule);
}

std::optional<uint32_t> FootruleDistanceBounded(const OrderedRanking& a,
                                                const OrderedRanking& b,
                                                uint32_t bound) {
  RANKJOIN_DCHECK(a.k == b.k);
  // distance <= bound  <=>  weight >= need.
  const uint32_t max = MaxFootrule(a.k);
  const uint32_t need = bound >= max ? 0 : (max - bound + 1) / 2;
  const uint32_t weight = WeighLanes(a, b, LaneWeight::kFootrule, need);
  if (weight < need) return std::nullopt;
  return max - 2 * weight;
}

}  // namespace rankjoin
