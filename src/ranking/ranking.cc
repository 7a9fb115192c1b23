#include "ranking/ranking.h"

#include <algorithm>
#include <sstream>
#include <string>

#include "ranking/flat_rankings.h"

namespace rankjoin {

int Ranking::RankOf(ItemId item) const {
  for (size_t r = 0; r < items_.size(); ++r) {
    if (items_[r] == item) return static_cast<int>(r);
  }
  return -1;
}

bool Ranking::IsValid() const {
  return internal::ItemsDistinct(items_.data(), items_.size());
}

std::string Ranking::ToString() const {
  std::ostringstream os;
  os << id_ << ": [";
  for (size_t i = 0; i < items_.size(); ++i) {
    if (i > 0) os << ", ";
    os << items_[i];
  }
  os << ']';
  return os.str();
}

size_t RankingDataset::size() const {
  if (rankings.empty() && flat_) return flat_->size();
  return rankings.size();
}

Status RankingDataset::Validate() const {
  // The fixed-k invariant can only be broken through the `rankings`
  // vector — the flat store is fixed-k by construction.
  for (const Ranking& r : rankings) {
    if (r.k() != k) {
      return Status::InvalidArgument("ranking " + std::to_string(r.id()) +
                                     " has length " + std::to_string(r.k()) +
                                     ", expected " + std::to_string(k));
    }
  }
  return store().Validate();  // memoized: runs once per load
}

namespace {

/// True when `flat` holds exactly `rankings` (ids and items, in order).
bool Mirrors(const FlatRankings& flat, int k,
             const std::vector<Ranking>& rankings) {
  if (flat.k() != k || flat.size() != rankings.size()) return false;
  const size_t width = static_cast<size_t>(k);
  for (size_t i = 0; i < rankings.size(); ++i) {
    const std::vector<ItemId>& items = rankings[i].items();
    if (flat.ids()[i] != rankings[i].id() || items.size() != width ||
        !std::equal(items.begin(), items.end(), flat.items() + i * width)) {
      return false;
    }
  }
  return true;
}

}  // namespace

const FlatRankings& RankingDataset::store() const {
  // A dataset born flat (mmap) has no `rankings` to mirror. Otherwise the
  // store is compared with `rankings` on every call: they may have been
  // edited in place, or in a copy that shares this store.
  const bool born_flat = rankings.empty() && flat_ && flat_->k() == k;
  if (!born_flat && !(flat_ && Mirrors(*flat_, k, rankings))) {
    flat_ = std::make_shared<const FlatRankings>(
        FlatRankings::FromRankings(k, rankings));
  }
  return *flat_;
}

void RankingDataset::AttachStore(std::shared_ptr<const FlatRankings> store) {
  flat_ = std::move(store);
}

}  // namespace rankjoin
