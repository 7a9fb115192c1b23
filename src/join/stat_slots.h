#ifndef RANKJOIN_JOIN_STAT_SLOTS_H_
#define RANKJOIN_JOIN_STAT_SLOTS_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "join/stats.h"
#include "minispark/dataset.h"

namespace rankjoin {

/// Runs `fn(partition, &local_stats)` over every partition of `input` as
/// the stage `name`, forces it, and merges the per-partition JoinStats
/// into `stats`. Each partition owns one slot, zeroed at the start of
/// every attempt so a retried task does not count twice. The stage is
/// forced before the merge because under lazy execution the kernels
/// have not run until then; Force(), not Cache(), since the result has
/// a single downstream consumer and a pin would be wasted
/// materialization (MS007).
template <typename T, typename F>
auto MapPartitionsWithStats(const minispark::Dataset<T>& input, F fn,
                            const std::string& name, JoinStats* stats) {
  auto slots = std::make_shared<std::vector<JoinStats>>(
      static_cast<size_t>(input.num_partitions()));
  auto result = input.MapPartitionsWithIndex(
      [fn = std::move(fn), slots](int index, const std::vector<T>& part) {
        JoinStats& local = (*slots)[static_cast<size_t>(index)];
        local = JoinStats();
        return fn(part, &local);
      },
      name);
  result.Force();
  for (const JoinStats& s : *slots) stats->MergeCounters(s);
  return result;
}

}  // namespace rankjoin

#endif  // RANKJOIN_JOIN_STAT_SLOTS_H_
