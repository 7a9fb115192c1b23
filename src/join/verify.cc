#include "join/verify.h"

#include "common/logging.h"
#include "ranking/footrule.h"

namespace rankjoin {

std::optional<uint32_t> VerifyPair(const OrderedRanking& a,
                                   const OrderedRanking& b,
                                   uint32_t raw_theta, JoinStats* stats) {
  ++stats->verified;
  std::optional<uint32_t> distance = FootruleDistanceBounded(a, b, raw_theta);
  if (distance.has_value()) ++stats->verify_passed;
  return distance;
}

RankingTable::RankingTable(const std::vector<OrderedRanking>& rankings)
    : rankings_(&rankings) {
  RANKJOIN_CHECK(rankings.size() < kEmpty);
  int bits = 1;
  while ((size_t{1} << bits) < 2 * rankings.size()) ++bits;
  shift_ = 64 - bits;
  slots_.assign(size_t{1} << bits, kEmpty);
  const size_t mask = slots_.size() - 1;
  for (size_t i = 0; i < rankings.size(); ++i) {
    size_t slot = Slot(rankings[i].id);
    while (slots_[slot] != kEmpty) slot = (slot + 1) & mask;
    slots_[slot] = static_cast<uint32_t>(i);
  }
}

const OrderedRanking& RankingTable::Get(RankingId id) const {
  const size_t mask = slots_.size() - 1;
  for (size_t slot = Slot(id);; slot = (slot + 1) & mask) {
    const uint32_t pos = slots_[slot];
    RANKJOIN_DCHECK(pos != kEmpty) << "unknown ranking id " << id;
    const OrderedRanking& ranking = (*rankings_)[pos];
    if (ranking.id == id) return ranking;
  }
}

}  // namespace rankjoin
