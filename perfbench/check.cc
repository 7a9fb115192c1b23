#include "check.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/random.h"
#include "ranking/footrule.h"

namespace rankjoin::perfbench {
namespace {

/// Runs fn(i) for i in [0, n) on up to four threads and returns the first
/// failure in index order. The checks are independent per index.
template <typename Fn>
Status ParallelCheck(size_t n, Fn fn) {
  constexpr size_t kThreads = 4;
  std::vector<Status> first_failure(kThreads);
  std::vector<size_t> failed_at(kThreads, n);
  {
    std::vector<std::jthread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (size_t i = t * n / kThreads; i < (t + 1) * n / kThreads; ++i) {
          Status s = fn(i);
          if (!s.ok()) {
            first_failure[t] = std::move(s);
            failed_at[t] = i;
            return;
          }
        }
      });
    }
  }
  for (size_t t = 0; t < kThreads; ++t) {
    if (failed_at[t] < n) return first_failure[t];
  }
  return Status::OK();
}

std::string PairText(const ResultPair& p) {
  return "(" + std::to_string(p.first) + ", " + std::to_string(p.second) + ")";
}

}  // namespace

Result<std::vector<ResultPair>> ReadPairFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return Status::IoError("cannot open " + path);
  std::string text;
  char buffer[1 << 16];
  size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    text.append(buffer, got);
  }
  const bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error) return Status::IoError("read error on " + path);

  std::vector<ResultPair> pairs;
  size_t line_number = 0;
  const char* pos = text.data();
  const char* const end = text.data() + text.size();
  while (pos < end) {
    const char* eol = std::find(pos, end, '\n');
    ++line_number;
    uint32_t a = 0;
    uint32_t b = 0;
    auto first = std::from_chars(pos, eol, a);
    const bool separated = first.ec == std::errc() && first.ptr < eol &&
                           *first.ptr == ' ';
    auto second = separated ? std::from_chars(first.ptr + 1, eol, b)
                            : std::from_chars_result{eol, std::errc::invalid_argument};
    if (!separated || second.ec != std::errc() || second.ptr != eol) {
      return Status::IoError(path + ":" + std::to_string(line_number) +
                             ": expected \"id1 id2\"");
    }
    pairs.emplace_back(a, b);
    pos = eol + 1;
  }
  return pairs;
}

Status CheckPairOrder(const std::vector<ResultPair>& pairs) {
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (pairs[i].first >= pairs[i].second) {
      return Status::Internal("pair " + PairText(pairs[i]) + " at line " +
                              std::to_string(i + 1) +
                              " does not have the smaller id first");
    }
    if (i > 0 && !(pairs[i - 1] < pairs[i])) {
      return Status::Internal(
          "pair " + PairText(pairs[i]) + " at line " + std::to_string(i + 1) +
          (pairs[i - 1] == pairs[i] ? " is a duplicate" : " is out of order"));
    }
  }
  return Status::OK();
}

uint64_t PairDigest(const std::vector<ResultPair>& pairs) {
  uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](uint32_t value) {
    for (int byte = 0; byte < 4; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ull;
    }
  };
  for (const ResultPair& p : pairs) {
    mix(p.first);
    mix(p.second);
  }
  return hash;
}

RankingIndex::RankingIndex(const RankingDataset& dataset) : dataset_(&dataset) {
  for (const Ranking& r : dataset.rankings) {
    if (r.id() >= by_id_.size()) by_id_.resize(size_t{r.id()} + 1, nullptr);
    by_id_[r.id()] = &r;
  }
}

const Ranking* RankingIndex::Find(RankingId id) const {
  return id < by_id_.size() ? by_id_[id] : nullptr;
}

Status CheckPairDistances(const RankingIndex& index,
                          const std::vector<ResultPair>& pairs,
                          uint32_t raw_theta) {
  return ParallelCheck(pairs.size(), [&](size_t i) {
    const ResultPair& p = pairs[i];
    const Ranking* a = index.Find(p.first);
    const Ranking* b = index.Find(p.second);
    if (a == nullptr || b == nullptr) {
      return Status::Internal("pair " + PairText(p) +
                              " names a ranking that is not in the input");
    }
    const uint32_t distance = FootruleDistance(*a, *b);
    if (distance > raw_theta) {
      return Status::Internal("pair " + PairText(p) + " has distance " +
                              std::to_string(distance) + " > " +
                              std::to_string(raw_theta));
    }
    return Status::OK();
  });
}

std::vector<RankingId> SampleAnchors(const RankingDataset& dataset,
                                     const std::vector<ResultPair>& pairs,
                                     size_t count, uint64_t seed) {
  std::vector<RankingId> anchors;
  if (count >= dataset.rankings.size()) {
    for (const Ranking& r : dataset.rankings) anchors.push_back(r.id());
  } else {
    Rng rng(seed);
    std::unordered_set<RankingId> chosen;
    const size_t from_pairs = pairs.empty() ? 0 : count / 2;
    for (size_t guard = 0; chosen.size() < from_pairs && guard < 64 * count;
         ++guard) {
      const ResultPair& p = pairs[rng.Uniform(pairs.size())];
      chosen.insert(rng.Bernoulli(0.5) ? p.first : p.second);
    }
    while (chosen.size() < count) {
      chosen.insert(dataset.rankings[rng.Uniform(dataset.rankings.size())].id());
    }
    anchors.assign(chosen.begin(), chosen.end());
  }
  std::sort(anchors.begin(), anchors.end());
  return anchors;
}

Status CheckAnchors(const RankingIndex& index,
                    const std::vector<ResultPair>& pairs, uint32_t raw_theta,
                    const std::vector<RankingId>& anchors) {
  std::unordered_map<RankingId, std::vector<RankingId>> reported;
  for (RankingId anchor : anchors) reported[anchor];
  for (const ResultPair& p : pairs) {
    if (auto it = reported.find(p.first); it != reported.end()) {
      it->second.push_back(p.second);
    }
    if (auto it = reported.find(p.second); it != reported.end()) {
      it->second.push_back(p.first);
    }
  }
  const RankingDataset& dataset = index.dataset();
  return ParallelCheck(anchors.size(), [&](size_t i) {
    const RankingId anchor = anchors[i];
    const Ranking* a = index.Find(anchor);
    if (a == nullptr) {
      return Status::Internal("anchor " + std::to_string(anchor) +
                              " is not in the input");
    }
    // Two top-k lists sharing s items are at least (k-s)(k-s+1) apart
    // (the k-s items missing on each side sit at rank k in the other
    // list), so only rankings sharing enough items need the exact
    // distance.
    std::vector<ItemId> items = a->items();
    std::sort(items.begin(), items.end());
    const int k = a->k();
    std::vector<RankingId> expected;
    for (const Ranking& b : dataset.rankings) {
      if (b.id() == anchor) continue;
      int shared = 0;
      for (ItemId item : b.items()) {
        shared += std::binary_search(items.begin(), items.end(), item) ? 1 : 0;
      }
      const uint32_t missing = static_cast<uint32_t>(k - shared);
      if (missing * (missing + 1) <= raw_theta &&
          FootruleDistance(*a, b) <= raw_theta) {
        expected.push_back(b.id());
      }
    }
    std::vector<RankingId> got = reported.at(anchor);
    std::sort(expected.begin(), expected.end());
    std::sort(got.begin(), got.end());
    if (got != expected) {
      return Status::Internal(
          "anchor " + std::to_string(anchor) + " has " +
          std::to_string(got.size()) + " partners in the output but " +
          std::to_string(expected.size()) + " by brute force");
    }
    return Status::OK();
  });
}

}  // namespace rankjoin::perfbench
