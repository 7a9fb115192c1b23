#include "ranking/lanes.h"

#include <algorithm>
#include <array>
#include <iterator>
#include <utility>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace rankjoin {
namespace internal {
namespace {

uint32_t Weight(LaneWeight weight, uint32_t k, uint32_t rank_a,
                uint32_t rank_b) {
  return weight == LaneWeight::kShared ? 1 : k - std::max(rank_a, rank_b);
}

#if defined(__SSE2__)
/// Where the block of each k starts in the Footrule weight table, which
/// holds one k × PaddedLanes(k) block per k in 1..kMaxBlockLanes; the
/// last entry is the table's size.
constexpr std::array<size_t, kMaxBlockLanes + 2> kWeightBlockOffsets = [] {
  std::array<size_t, kMaxBlockLanes + 2> offsets{};
  for (size_t k = 1; k + 1 < offsets.size(); ++k) {
    offsets[k + 1] = offsets[k] + k * PaddedLanes(k);
  }
  return offsets;
}();

/// Row i of block k holds k − max(i, r) on lane r < k and 0 on the pad
/// lanes, so a pad lane never contributes whatever it compares equal to.
/// The last row (i = k − 1) is 1 on every real lane: the kShared row.
/// 16-byte aligned, so every row loads as aligned lane vectors.
alignas(16) constexpr std::array<uint32_t, kWeightBlockOffsets.back()>
    kFootruleWeights = [] {
      std::array<uint32_t, kWeightBlockOffsets.back()> table{};
      for (size_t k = 1; k <= kMaxBlockLanes; ++k) {
        uint32_t* block = table.data() + kWeightBlockOffsets[k];
        for (size_t i = 0; i < k; ++i) {
          for (size_t r = 0; r < k; ++r) {
            block[i * PaddedLanes(k) + r] =
                static_cast<uint32_t>(k - std::max(i, r));
          }
        }
      }
      return table;
    }();

/// Largest kFootrule sum the items of `a` ranked t..k−1 can still add:
/// Σ_{r=t}^{k−1} (k − r).
constexpr uint32_t FootruleWeightLeft(uint32_t k, uint32_t t) {
  return (k - t) * (k - t + 1) / 2;
}

uint32_t Sum(__m128i v) {
  v = _mm_add_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(1, 0, 3, 2)));
  v = _mm_add_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(2, 3, 0, 1)));
  return static_cast<uint32_t>(_mm_cvtsi128_si32(v));
}

/// WeighLanesSse2 over `kBlocks` lane vectors of b (k ≤ 4·kBlocks).
template <int kBlocks>
uint32_t WeighBlocksSse2(const ItemId* a, const ItemId* b, uint32_t k,
                         LaneWeight weight, uint32_t need) {
  const uint32_t* row = kFootruleWeights.data() + kWeightBlockOffsets[k];
  size_t row_step = PaddedLanes(k);
  if (weight == LaneWeight::kShared) {
    row += (k - 1) * row_step;
    row_step = 0;
  }
  // Tests start at the first item count with FootruleWeightLeft < need.
  // The bound is the same for every pair of a join, so the loop is
  // predicted.
  uint32_t check = need > 0 ? 1 : k + 1;
  while (check < k && FootruleWeightLeft(k, check) >= need) ++check;

  __m128i lanes[kBlocks];
  for (int j = 0; j < kBlocks; ++j) {
    lanes[j] = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(b + kLaneWidth * j));
  }
  __m128i acc = _mm_setzero_si128();
  for (uint32_t i = 0; i < k; ++i, row += row_step) {
    const __m128i item = _mm_set1_epi32(static_cast<int>(a[i]));
    for (int j = 0; j < kBlocks; ++j) {
      const __m128i w = _mm_load_si128(
          reinterpret_cast<const __m128i*>(row + kLaneWidth * j));
      acc = _mm_add_epi32(
          acc, _mm_and_si128(_mm_cmpeq_epi32(item, lanes[j]), w));
    }
    if (i + 1 >= check) {
      const uint32_t so_far = Sum(acc);
      if (so_far + FootruleWeightLeft(k, i + 1) < need) return so_far;
    }
  }
  return Sum(acc);
}
#endif

}  // namespace

uint32_t WeighLanesScalar(const ItemId* a, const ItemId* b, uint32_t k,
                          LaneWeight weight) {
  uint32_t sum = 0;
  for (uint32_t i = 0; i < k; ++i) {
    for (uint32_t r = 0; r < k; ++r) {
      sum += (a[i] == b[r] ? 1u : 0u) * Weight(weight, k, i, r);
    }
  }
  return sum;
}

uint32_t WeighLanesSorted(const ItemId* a, const ItemId* b, uint32_t k,
                          LaneWeight weight) {
  // (item, rank) copies, reused across calls so a pair costs no
  // allocation once a thread's scratch has grown to k.
  thread_local std::vector<std::pair<ItemId, uint32_t>> sorted_a;
  thread_local std::vector<std::pair<ItemId, uint32_t>> sorted_b;
  auto fill = [k](const ItemId* items,
                  std::vector<std::pair<ItemId, uint32_t>>* out) {
    out->clear();
    for (uint32_t r = 0; r < k; ++r) out->push_back({items[r], r});
    std::sort(out->begin(), out->end());
  };
  fill(a, &sorted_a);
  fill(b, &sorted_b);
  uint32_t sum = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < k && j < k) {
    if (sorted_a[i].first < sorted_b[j].first) {
      ++i;
    } else if (sorted_b[j].first < sorted_a[i].first) {
      ++j;
    } else {
      sum += Weight(weight, k, sorted_a[i].second, sorted_b[j].second);
      ++i;
      ++j;
    }
  }
  return sum;
}

#if defined(__SSE2__)
uint32_t WeighLanesSse2(const ItemId* a, const ItemId* b, uint32_t k,
                        LaneWeight weight, uint32_t need) {
  // One out-of-line kernel per lane-vector count keeps each hot loop's
  // lane vectors in registers.
  using Kernel = uint32_t (*)(const ItemId*, const ItemId*, uint32_t,
                              LaneWeight, uint32_t);
  static constexpr Kernel kKernels[] = {
      WeighBlocksSse2<1>, WeighBlocksSse2<2>, WeighBlocksSse2<3>,
      WeighBlocksSse2<4>, WeighBlocksSse2<5>, WeighBlocksSse2<6>,
      WeighBlocksSse2<7>, WeighBlocksSse2<8>};
  static_assert(std::size(kKernels) * kLaneWidth == kMaxBlockLanes);
  if (k == 0) return 0;
  return kKernels[PaddedLanes(k) / kLaneWidth - 1](a, b, k, weight, need);
}
#endif

}  // namespace internal
}  // namespace rankjoin
