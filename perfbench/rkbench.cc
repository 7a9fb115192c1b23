// The benchmark program behind perfbench/run.py (see perfbench/README.md).
//
//   rkbench gen --workload W --seed S --dir D
//       writes the workload's input rankings as text files into D.
//   rkbench run --workload W --seed S --dir D --seconds T --trace 0|1
//               [--trace-out FILE]
//       runs passes over those files for T seconds, checks every output
//       and prints the metrics; the last stdout line is one JSON object.
//
// A pass is what a rankjoin_cli user waits for: load the input file,
// build the execution context, join, and write the sorted pairs.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "check.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "core/similarity_join.h"
#include "data/generator.h"
#include "data/io.h"
#include "data/scale.h"
#include "join/local_join.h"
#include "minispark/context.h"
#include "minispark/dataset.h"
#include "ranking/footrule.h"
#include "ranking/prefix.h"
#include "ranking/reorder.h"
#include "spans.h"
#include "stats.h"

namespace rankjoin::perfbench {
namespace {

constexpr int kK = 10;
constexpr int kWorkers = 4;
constexpr int kPartitions = 64;

/// One benchmark workload: the join a user asks for and the input it is
/// asked over. Why each exists is in README.md.
struct Workload {
  std::string name;
  SimilarityJoinConfig join;
  uint64_t shuffle_budget_bytes = 0;
  bool pipelined = false;
  /// DBLP-like base rankings, vocabulary, and the perturbed-copy scale
  /// factor applied to them (ScaleDataset).
  size_t base_rankings = 4000;
  uint32_t domain = 2000;
  int scale = 1;
  /// Distinct input files; input i is generated from seed + i and the
  /// passes cycle through them.
  int num_inputs = 1;
  /// Anchor rankings per input whose partner sets are brute-forced.
  size_t anchors = 64;
  /// A second algorithm that must return the identical pair set. Only
  /// vj-dense names one (CL-P, the cheaper side), which makes the pair
  /// sets of vj-dense and clp-dense equal for every seed.
  std::optional<SimilarityJoinConfig> cross_check;
};

SimilarityJoinConfig VjConfig(double theta) {
  SimilarityJoinConfig config;
  config.algorithm = Algorithm::kVJ;
  config.theta = theta;
  return config;
}

SimilarityJoinConfig ClpConfig(double theta, uint64_t delta) {
  SimilarityJoinConfig config;
  config.algorithm = Algorithm::kCLP;
  config.theta = theta;
  config.theta_c = 0.03;
  config.delta = delta;
  return config;
}

std::optional<Workload> FindWorkload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "vj-dense") {
    w.join = VjConfig(0.4);
    w.scale = 10;
    w.cross_check = ClpConfig(0.4, 900);
  } else if (name == "clp-dense") {
    w.join = ClpConfig(0.4, 900);
    w.scale = 10;
  } else if (name == "scale-spill") {
    w.join = VjConfig(0.05);
    w.shuffle_budget_bytes = 1 << 20;
    w.pipelined = true;
    w.base_rankings = 50000;
    w.domain = 25000;
    w.scale = 10;
    w.anchors = 16;
  } else if (name == "small-batch") {
    w.join = ClpConfig(0.1, 300);
    w.num_inputs = 32;
    w.anchors = 16;
  } else {
    return std::nullopt;
  }
  return w;
}

std::string InputPath(const std::string& dir, int input) {
  return dir + "/input-" + std::to_string(input) + ".txt";
}

int Generate(const Workload& w, uint64_t seed, const std::string& dir) {
  for (int i = 0; i < w.num_inputs; ++i) {
    GeneratorOptions base = DblpLikeOptions();
    base.num_rankings = w.base_rankings;
    base.domain_size = w.domain;
    base.seed = seed + static_cast<uint64_t>(i);
    RankingDataset dataset = GenerateDataset(base);
    if (w.scale > 1) {
      dataset = ScaleDataset(dataset, w.scale, base.domain_size,
                             /*perturbation_ops=*/3, base.seed);
    }
    if (Status s = WriteRankings(InputPath(dir, i), dataset); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }
  return 0;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

minispark::Context::Options ContextOptions(const Workload& w,
                                           const std::string& spill_dir) {
  minispark::Context::Options options;
  options.num_workers = kWorkers;
  options.default_partitions = kPartitions;
  options.shuffle_memory_budget_bytes = w.shuffle_budget_bytes;
  options.pipelined_stages = w.pipelined;
  options.spill_dir = spill_dir;
  return options;
}

using ExactCounters = std::vector<uint64_t>;

/// Everything measured in one pass.
struct Pass {
  int input = 0;
  bool traced = false;
  bool ok = true;
  std::string error;

  double load_s = 0;
  double setup_s = 0;
  double join_s = 0;
  double join_cpu_s = 0;
  double write_s = 0;
  double e2e_s = 0;
  JoinStats stats;

  uint64_t stages = 0;
  uint64_t tasks = 0;
  double task_cpu_s = 0;
  double makespan_s = 0;
  double queue_wait_us_p50 = 0;
  double queue_wait_us_p99 = 0;
  double straggler_ratio = 0;
  uint64_t shuffle_bytes = 0;
  uint64_t spilled_bytes = 0;
  uint64_t spilled_runs = 0;

  /// The counts that must repeat exactly on every pass over an input:
  /// candidates, verified, verify_passed, result_pairs, stages, tasks.
  ExactCounters Counters() const {
    return {stats.candidates, stats.verified, stats.verify_passed,
            stats.result_pairs, stages,       tasks};
  }
};

void ReadEngineMetrics(const minispark::JobMetrics& metrics, Pass* pass) {
  pass->stages = metrics.NumStages();
  pass->task_cpu_s = metrics.TotalTaskSeconds();
  pass->makespan_s = metrics.SimulatedMakespan(kWorkers);
  const minispark::Histogram queue = metrics.QueueWaitHistogram();
  pass->queue_wait_us_p50 = queue.Quantile(0.50);
  pass->queue_wait_us_p99 = queue.Quantile(0.99);
  pass->shuffle_bytes = metrics.TotalShuffleBytes();
  pass->spilled_bytes = metrics.TotalSpilledBytes();
  pass->spilled_runs = metrics.TotalSpilledRuns();
  const minispark::StageMetrics* heaviest = nullptr;
  for (const minispark::StageMetrics& stage : metrics.stages()) {
    pass->tasks += stage.task_seconds.size();
    if (heaviest == nullptr ||
        stage.TotalTaskSeconds() > heaviest->TotalTaskSeconds()) {
      heaviest = &stage;
    }
  }
  if (heaviest != nullptr && !heaviest->task_seconds.empty()) {
    const double median = Median(heaviest->task_seconds);
    pass->straggler_ratio =
        median > 0 ? heaviest->MaxTaskSeconds() / median : 0.0;
  }
}

/// Runs one pass. With a recorder, each layer call gets a span under one
/// root span "pass"; the root ends when the pairs are written, so the
/// spans cover exactly the measured e2e_s.
Pass RunPass(const Workload& w, const std::string& input, const std::string& output,
             const std::string& spill_dir, SpanRecorder* recorder,
             int pass_id) {
  Pass pass;
  Result<RankingDataset> dataset = Status::Internal("not loaded");
  std::unique_ptr<minispark::Context> ctx;
  Result<JoinResult> result = Status::Internal("not run");
  Status written;
  {
    ScopedSpan root(recorder, "pass", -1, pass_id);
    Stopwatch e2e;
    {
      ScopedSpan span(recorder, "data.load", root.id(), pass_id);
      dataset = ReadRankings(input, kK);
    }
    pass.load_s = e2e.ElapsedSeconds();
    if (dataset.ok()) {
      ScopedSpan span(recorder, "minispark.context", root.id(), pass_id);
      ctx = std::make_unique<minispark::Context>(ContextOptions(w, spill_dir));
    }
    pass.setup_s = e2e.ElapsedSeconds();
    if (ctx) {
      const double cpu = ProcessCpuSeconds();
      Stopwatch watch;
      {
        ScopedSpan span(recorder, "join.run", root.id(), pass_id);
        result = RunSimilarityJoin(ctx.get(), *dataset, w.join);
      }
      pass.join_s = watch.ElapsedSeconds();
      pass.join_cpu_s = ProcessCpuSeconds() - cpu;
    }
    if (result.ok()) {
      Stopwatch watch;
      ScopedSpan span(recorder, "data.write_pairs", root.id(), pass_id);
      written = WriteResultPairs(output, result->pairs);
      pass.write_s = watch.ElapsedSeconds();
    }
    pass.e2e_s = e2e.ElapsedSeconds();
  }
  if (!dataset.ok()) {
    pass.ok = false;
    pass.error = dataset.status().ToString();
  } else if (!result.ok()) {
    pass.ok = false;
    pass.error = result.status().ToString();
  } else if (!written.ok()) {
    pass.ok = false;
    pass.error = written.ToString();
  } else {
    pass.stats = result->stats;
    ReadEngineMetrics(ctx->metrics(), &pass);
  }
  return pass;
}

/// Setup is short next to a join, so its median gets more samples than
/// there are passes: setup-only repetitions (load and context, no join)
/// until there are kSetupSamples samples or kSetupBudgetS is spent.
constexpr size_t kSetupSamples = 15;
constexpr double kSetupBudgetS = 2.0;

std::vector<double> ExtraSetups(const Workload& w,
                                const std::vector<std::string>& inputs,
                                const std::string& spill_dir, size_t have) {
  std::vector<double> setups;
  Stopwatch budget;
  for (size_t i = have; i < kSetupSamples && budget.ElapsedSeconds() < kSetupBudgetS;
       ++i) {
    Stopwatch watch;
    auto dataset = ReadRankings(inputs[i % inputs.size()], kK);
    minispark::Context ctx(ContextOptions(w, spill_dir));
    setups.push_back(watch.ElapsedSeconds());
  }
  return setups;
}

/// What the first pass over an input established; later passes over the
/// same input must reproduce it exactly.
struct Reference {
  uint64_t digest = 0;
  ExactCounters counters;
  std::vector<ResultPair> pairs;
};

/// Outside the timed region: reads back the pair file of `pass` and
/// checks its format, then its digest and exact counters against the
/// input's reference (or makes it the reference).
void CheckPass(const std::string& output, std::map<int, Reference>* refs,
               Pass* pass) {
  if (!pass->ok) return;
  auto pairs = ReadPairFile(output);
  Status status = pairs.status();
  if (status.ok()) status = CheckPairOrder(*pairs);
  if (status.ok() && pairs->size() != pass->stats.result_pairs) {
    status = Status::Internal(
        "JoinStats::result_pairs = " + std::to_string(pass->stats.result_pairs) +
        " but the file holds " + std::to_string(pairs->size()) + " pairs");
  }
  if (!status.ok()) {
    pass->ok = false;
    pass->error = status.ToString();
    return;
  }
  const uint64_t digest = PairDigest(*pairs);
  auto it = refs->find(pass->input);
  if (it == refs->end()) {
    (*refs)[pass->input] = Reference{digest, pass->Counters(), *std::move(pairs)};
    return;
  }
  if (digest != it->second.digest) {
    pass->ok = false;
    pass->error = "pair-set digest differs from the input's first pass";
  } else if (pass->Counters() != it->second.counters) {
    pass->ok = false;
    pass->error = "exact counters differ from the input's first pass";
  }
}

/// The untimed full check of one input's reference pair set: every pair
/// re-verified against raw theta, and a seeded anchor sample brute-forced
/// for completeness; plus, where the workload names one, a second
/// algorithm that must return the same pair set.
Status CheckInput(const Workload& w, const std::string& input,
                  const Reference& ref, uint64_t seed,
                  const std::string& spill_dir) {
  auto dataset = ReadRankings(input, kK);
  if (!dataset.ok()) return dataset.status();
  const RankingIndex index(*dataset);
  const uint32_t raw_theta = RawThreshold(w.join.theta, kK);
  if (Status s = CheckPairDistances(index, ref.pairs, raw_theta); !s.ok()) {
    return s;
  }
  const std::vector<RankingId> anchors =
      SampleAnchors(*dataset, ref.pairs, w.anchors, seed);
  if (Status s = CheckAnchors(index, ref.pairs, raw_theta, anchors); !s.ok()) {
    return s;
  }
  if (w.cross_check) {
    minispark::Context ctx(ContextOptions(w, spill_dir));
    auto other = RunSimilarityJoin(&ctx, *dataset, *w.cross_check);
    if (!other.ok()) return other.status();
    SortPairs(&other->pairs);
    if (PairDigest(other->pairs) != ref.digest) {
      return Status::Internal(
          std::string(AlgorithmName(w.cross_check->algorithm)) + " returns " +
          std::to_string(other->pairs.size()) + " pairs, " +
          AlgorithmName(w.join.algorithm) + " " +
          std::to_string(ref.pairs.size()) + " (or different ones)");
    }
  }
  return Status::OK();
}

/// Per-layer costs measured by calling each module's public functions
/// directly on the first input, outside the passes.
struct Probes {
  double order_ns_per_ranking = 0;
  double candgen_ns_per_candidate = 0;
  double verify_ns_per_pair = 0;
  uint64_t probe_candidates = 0;
  uint64_t probe_verified = 0;
  double empty_stage_us = 0;
  double noop_task_us = 0;
  Status status;
};

/// Posting groups as the VJ pipeline forms them: one per item, holding
/// every ranking with the item in its overlap prefix. The probe uses a
/// seeded sample of groups, each cut to its first kMaxGroup postings,
/// until kPairBudget nested-loop pairs are covered, so that the gathered
/// candidate pairs stay in memory.
constexpr size_t kMaxGroup = 2048;
constexpr uint64_t kPairBudget = 4'000'000;

std::vector<std::vector<PrefixPosting>> SampleGroups(
    const std::vector<OrderedRanking>& ordered, int prefix, uint64_t seed) {
  std::unordered_map<ItemId, std::vector<PrefixPosting>> by_item;
  for (const OrderedRanking& r : ordered) {
    const size_t p = std::min(static_cast<size_t>(prefix), r.canonical.size());
    for (size_t t = 0; t < p; ++t) {
      by_item[r.canonical[t].item].push_back(
          PrefixPosting{r.id, r.canonical[t].rank, false, &r});
    }
  }
  std::vector<ItemId> keys;
  for (const auto& [item, group] : by_item) {
    if (group.size() >= 2) keys.push_back(item);
  }
  std::sort(keys.begin(), keys.end());
  Rng rng(seed);
  rng.Shuffle(keys);
  std::vector<std::vector<PrefixPosting>> groups;
  uint64_t pairs = 0;
  for (ItemId item : keys) {
    if (pairs >= kPairBudget) break;
    std::vector<PrefixPosting>& group = by_item[item];
    if (group.size() > kMaxGroup) group.resize(kMaxGroup);
    pairs += group.size() * (group.size() - 1) / 2;
    groups.push_back(std::move(group));
  }
  return groups;
}

Probes RunProbes(const Workload& w, const RankingDataset& dataset,
                 uint64_t seed, const std::string& spill_dir,
                 SpanRecorder* recorder, int pass_id) {
  Probes probes;
  ScopedSpan root(recorder, "probe", -1, pass_id);
  constexpr int kReps = 3;
  const FlatRankings& store = dataset.store();

  std::vector<double> order_s;
  std::vector<OrderedRanking> ordered;
  for (int rep = 0; rep < kReps; ++rep) {
    ScopedSpan span(recorder, "ranking.order", root.id(), pass_id);
    Stopwatch watch;
    const ItemOrder order = ItemOrder::FromFrequencies(CountItemFrequencies(store));
    ordered = MakeOrderedDataset(store, order);
    order_s.push_back(watch.ElapsedSeconds());
  }
  probes.order_ns_per_ranking =
      Median(order_s) * 1e9 / static_cast<double>(dataset.size());

  const uint32_t raw_theta = RawThreshold(w.join.theta, kK);
  LocalJoinOptions options;
  options.raw_theta = raw_theta;
  options.prefix_size = OverlapPrefix(raw_theta, kK);
  const std::vector<std::vector<PrefixPosting>> groups =
      SampleGroups(ordered, options.prefix_size, seed);
  const bool nested_loop = w.join.algorithm == Algorithm::kCLP;

  std::vector<double> join_s;
  JoinStats stats;
  std::vector<ScoredPair> out;
  for (int rep = 0; rep < kReps; ++rep) {
    ScopedSpan span(recorder, "join.candgen", root.id(), pass_id);
    stats = JoinStats{};
    out.clear();
    Stopwatch watch;
    for (const auto& group : groups) {
      if (nested_loop) {
        LocalNestedLoopJoin(group, options, &out, &stats);
      } else {
        LocalPrefixJoin(group, options, &out, &stats);
      }
    }
    join_s.push_back(watch.ElapsedSeconds());
  }

  // The pairs the nested loop verifies, in the order it meets them.
  std::vector<std::pair<const OrderedRanking*, const OrderedRanking*>> gathered;
  for (const auto& group : groups) {
    for (size_t i = 0; i + 1 < group.size(); ++i) {
      for (size_t j = i + 1; j < group.size(); ++j) {
        if (PositionFilterPasses(group[i].key_rank, group[j].key_rank,
                                 raw_theta)) {
          gathered.emplace_back(group[i].ranking, group[j].ranking);
        }
      }
    }
  }
  if (nested_loop && gathered.size() != stats.verified) {
    probes.status = Status::Internal(
        "probe gathered " + std::to_string(gathered.size()) +
        " pairs but LocalNestedLoopJoin verified " +
        std::to_string(stats.verified));
  }
  std::vector<double> verify_s;
  uint64_t passed = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    ScopedSpan span(recorder, "join.verify", root.id(), pass_id);
    passed = 0;
    Stopwatch watch;
    for (const auto& [a, b] : gathered) {
      if (FootruleDistanceBounded(*a, *b, raw_theta)) ++passed;
    }
    verify_s.push_back(watch.ElapsedSeconds());
  }
  if (nested_loop && probes.status.ok() && passed != stats.verify_passed) {
    probes.status = Status::Internal("probe verify replay disagrees with "
                                     "LocalNestedLoopJoin on passed pairs");
  }
  probes.probe_candidates = stats.candidates;
  probes.probe_verified = stats.verified;
  if (!gathered.empty()) {
    probes.verify_ns_per_pair =
        Median(verify_s) * 1e9 / static_cast<double>(gathered.size());
  }
  if (stats.candidates > 0) {
    const double verify_part =
        static_cast<double>(stats.verified) * probes.verify_ns_per_pair;
    probes.candgen_ns_per_candidate =
        (Median(join_s) * 1e9 - verify_part) /
        static_cast<double>(stats.candidates);
  }

  // Engine calibration through the public Dataset API: a one-task stage
  // gives the fixed cost of a stage; a wide no-op stage the cost per task.
  {
    ScopedSpan span(recorder, "minispark.calibrate", root.id(), pass_id);
    minispark::Context ctx(ContextOptions(w, spill_dir));
    constexpr int kWideTasks = 256;
    std::vector<double> one;
    std::vector<double> wide;
    for (int rep = 0; rep < 60; ++rep) {
      Stopwatch watch;
      minispark::Parallelize(&ctx, std::vector<int>{}, 1);
      const double t1 = watch.ElapsedSeconds();
      watch.Reset();
      minispark::Parallelize(&ctx, std::vector<int>{}, kWideTasks);
      const double t2 = watch.ElapsedSeconds();
      if (rep >= 10) {  // the first stages warm the pool up
        one.push_back(t1);
        wide.push_back(t2);
      }
    }
    probes.empty_stage_us = Median(one) * 1e6;
    probes.noop_task_us =
        (Median(wide) - Median(one)) * 1e6 / (kWideTasks - 1);
  }
  return probes;
}

/// A metric as printed: value and unit.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Values of `field` over the passes that `keep` selects.
template <typename Field, typename Keep>
std::vector<double> Collect(const std::vector<Pass>& passes, Field field,
                            Keep keep) {
  std::vector<double> values;
  for (const Pass& p : passes) {
    if (p.ok && keep(p)) values.push_back(field(p));
  }
  return values;
}

template <typename Field>
std::vector<double> Collect(const std::vector<Pass>& passes, Field field) {
  return Collect(passes, field, [](const Pass&) { return true; });
}

void PrintSpread(const std::string& name, const std::vector<double>& values,
                 const std::string& unit) {
  const auto q = Quartiles(values);
  std::printf("  %-36s median %.6g %s  [q1 %.6g, q3 %.6g] over %zu samples\n",
              name.c_str(), Median(values), unit.c_str(), q[0], q[2],
              values.size());
}

/// End-to-end metrics (untraced passes).
void AddEndToEnd(const std::vector<Pass>& passes,
                 const std::vector<double>& extra_setups, size_t attempted,
                 size_t failed, double peak_rss_mb, Metrics* m) {
  auto untraced = [](const Pass& p) { return !p.traced; };
  auto setup = Collect(passes, [](const Pass& p) { return p.setup_s; }, untraced);
  setup.insert(setup.end(), extra_setups.begin(), extra_setups.end());
  const auto join =
      Collect(passes, [](const Pass& p) { return p.join_s; }, untraced);
  const auto cpu =
      Collect(passes, [](const Pass& p) { return p.join_cpu_s; }, untraced);
  const auto e2e = Collect(passes, [](const Pass& p) { return p.e2e_s; }, untraced);
  (*m)["setup_s"] = {Median(setup), "s"};
  (*m)["join_s"] = {Median(join), "s"};
  (*m)["join_s_p90"] = {Percentile(join, 90), "s"};
  (*m)["join_cpu_s"] = {Median(cpu), "s"};
  (*m)["e2e_s"] = {Median(e2e), "s"};
  (*m)["peak_rss_mb"] = {peak_rss_mb, "MB"};
  (*m)["failed_frac"] = {attempted == 0 ? 0.0
                                        : static_cast<double>(failed) /
                                              static_cast<double>(attempted),
                         "fraction"};
  std::printf("end-to-end, untraced passes:\n");
  PrintSpread("setup_s", setup, "s");
  PrintSpread("join_s", join, "s");
  PrintSpread("join_cpu_s", cpu, "s");
  PrintSpread("e2e_s", e2e, "s");
  std::printf("  %-36s %.6g s (nearest rank; %zu samples, %zu beyond it)\n",
              "join_s_p90", (*m)["join_s_p90"].value, join.size(),
              join.size() - static_cast<size_t>(std::ceil(0.9 * join.size())));
}

/// Per-layer metrics of a traced run.
void AddPerLayer(const Workload& w, const std::vector<Pass>& passes,
                 const std::vector<std::string>& inputs,
                 const SpanRecorder& recorder, const Probes& probes,
                 Metrics* m) {
  auto median = [&passes](auto field) { return Median(Collect(passes, field)); };
  // Counts repeat exactly on every pass over an input; a count is the
  // median over the workload's distinct inputs (the count itself when
  // there is one input).
  std::map<int, const Pass*> first_of_input;
  for (const Pass& p : passes) {
    if (p.ok) first_of_input.emplace(p.input, &p);
  }
  auto per_input = [&first_of_input](auto value) {
    std::vector<double> values;
    for (const auto& [input, p] : first_of_input) {
      values.push_back(static_cast<double>(value(p->stats)));
    }
    return Median(values);
  };
  auto ratio = [](uint64_t part, uint64_t base) {
    return base == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(base);
  };

  std::vector<double> text_mb_per_s;
  for (const Pass& p : passes) {
    if (!p.ok || p.load_s <= 0) continue;
    const double mb =
        static_cast<double>(std::filesystem::file_size(inputs[p.input])) / 1e6;
    text_mb_per_s.push_back(mb / p.load_s);
  }
  (*m)["data.load_s"] = {median([](const Pass& p) { return p.load_s; }), "s"};
  (*m)["data.text_mb_per_s"] = {Median(text_mb_per_s), "MB/s"};
  (*m)["data.write_pairs_s"] = {median([](const Pass& p) { return p.write_s; }),
                                "s"};
  (*m)["ranking.order_ns_per_ranking"] = {probes.order_ns_per_ranking, "ns"};
  (*m)["ranking.ordering_s"] = {
      median([](const Pass& p) { return p.stats.ordering_seconds; }), "s"};

  const std::pair<const char*, uint64_t JoinStats::*> join_counts[] = {
      {"join.candidates", &JoinStats::candidates},
      {"join.position_filtered", &JoinStats::position_filtered},
      {"join.verified", &JoinStats::verified},
      {"join.verify_passed", &JoinStats::verify_passed},
      {"join.result_pairs", &JoinStats::result_pairs},
      {"join.triangle_filtered", &JoinStats::triangle_filtered},
      {"join.emitted_unverified", &JoinStats::emitted_unverified},
      {"join.clusters", &JoinStats::clusters},
      {"join.lists_repartitioned", &JoinStats::lists_repartitioned}};
  for (const auto& [name, field] : join_counts) {
    (*m)[name] = {per_input([field](const JoinStats& s) { return s.*field; }),
                  "count"};
  }
  (*m)["join.verify_yield"] = {
      per_input([&](const JoinStats& s) { return ratio(s.verify_passed, s.verified); }),
      "ratio"};
  (*m)["join.dup_ratio"] = {
      per_input([&](const JoinStats& s) { return ratio(s.verify_passed, s.result_pairs); }),
      "ratio"};
  (*m)["join.candgen_ns_per_candidate"] = {probes.candgen_ns_per_candidate, "ns"};
  (*m)["join.verify_ns_per_pair"] = {probes.verify_ns_per_pair, "ns"};
  (*m)["join.clustering_s"] = {
      median([](const Pass& p) { return p.stats.clustering_seconds; }), "s"};
  (*m)["join.joining_s"] = {
      median([](const Pass& p) { return p.stats.joining_seconds; }), "s"};
  (*m)["join.expansion_s"] = {
      median([](const Pass& p) { return p.stats.expansion_seconds; }), "s"};

  std::vector<double> stages;
  std::vector<double> tasks;
  for (const auto& [input, p] : first_of_input) {
    stages.push_back(static_cast<double>(p->stages));
    tasks.push_back(static_cast<double>(p->tasks));
  }
  (*m)["minispark.stages"] = {Median(stages), "count"};
  (*m)["minispark.tasks"] = {Median(tasks), "count"};
  (*m)["minispark.task_cpu_s"] = {median([](const Pass& p) { return p.task_cpu_s; }),
                                  "s"};
  (*m)["minispark.overhead_s"] = {
      median([](const Pass& p) { return p.join_s - p.makespan_s; }), "s"};
  (*m)["minispark.busy_frac"] = {
      median([](const Pass& p) {
        return p.join_s > 0 ? p.task_cpu_s / (p.join_s * kWorkers) : 0.0;
      }),
      "fraction"};
  (*m)["minispark.queue_wait_us_p50"] = {
      median([](const Pass& p) { return p.queue_wait_us_p50; }), "us"};
  (*m)["minispark.queue_wait_us_p99"] = {
      median([](const Pass& p) { return p.queue_wait_us_p99; }), "us"};
  (*m)["minispark.empty_stage_us"] = {probes.empty_stage_us, "us"};
  (*m)["minispark.noop_task_us"] = {probes.noop_task_us, "us"};
  (*m)["minispark.straggler_ratio"] = {
      median([](const Pass& p) { return p.straggler_ratio; }), "ratio"};
  (*m)["minispark.shuffle_bytes"] = {
      median([](const Pass& p) { return static_cast<double>(p.shuffle_bytes); }),
      "bytes"};
  (*m)["minispark.spilled_bytes"] = {
      median([](const Pass& p) { return static_cast<double>(p.spilled_bytes); }),
      "bytes"};
  (*m)["minispark.spilled_runs"] = {
      median([](const Pass& p) { return static_cast<double>(p.spilled_runs); }),
      "count"};

  // Tracing cost and coverage: traced against untraced passes.
  const auto traced_e2e =
      Collect(passes, [](const Pass& p) { return p.e2e_s; },
              [](const Pass& p) { return p.traced; });
  const auto plain_e2e =
      Collect(passes, [](const Pass& p) { return p.e2e_s; },
              [](const Pass& p) { return !p.traced; });
  (*m)["trace.overhead_frac"] = {
      Median(plain_e2e) > 0 ? Median(traced_e2e) / Median(plain_e2e) - 1 : 0.0,
      "fraction"};
  std::vector<double> unattributed;
  std::vector<std::pair<double, int>> traced_passes;  // (e2e, pass id)
  for (size_t i = 0; i < passes.size(); ++i) {
    if (!passes[i].ok || !passes[i].traced) continue;
    const int pass_id = static_cast<int>(i) + 1;
    const auto self = SelfSecondsByLayer(recorder.spans(), pass_id);
    double total = 0;
    for (const auto& [layer, seconds] : self) total += seconds;
    const auto it = self.find("pass");
    unattributed.push_back(total > 0 && it != self.end() ? it->second / total
                                                         : 0.0);
    traced_passes.emplace_back(passes[i].e2e_s, pass_id);
  }
  (*m)["trace.unattributed_frac"] = {Median(unattributed), "fraction"};

  // Self times of the median traced pass; they add up to its wall time.
  if (!traced_passes.empty()) {
    std::sort(traced_passes.begin(), traced_passes.end());
    const int pass_id = traced_passes[traced_passes.size() / 2].second;
    const auto self = SelfSecondsByLayer(recorder.spans(), pass_id);
    auto layer = [&self](const char* name) {
      const auto it = self.find(name);
      return it == self.end() ? 0.0 : it->second;
    };
    double wall = 0;
    for (const Span& s : recorder.spans()) {
      if (s.pass == pass_id && s.parent < 0) wall += (s.end_us - s.start_us) / 1e6;
    }
    (*m)["data.self_s"] = {layer("data"), "s"};
    (*m)["minispark.self_s"] = {layer("minispark"), "s"};
    (*m)["join.self_s"] = {layer("join"), "s"};
    (*m)["trace.unattributed_s"] = {layer("pass"), "s"};
    (*m)["trace.pass_s"] = {wall, "s"};
    std::printf(
        "traced pass %d: wall %.6f s = data %.6f + minispark %.6f + join %.6f "
        "+ unattributed %.6f s (sum %.6f s)\n",
        pass_id, wall, layer("data"), layer("minispark"), layer("join"),
        layer("pass"),
        layer("data") + layer("minispark") + layer("join") + layer("pass"));
  }
  std::printf("probes on input 0 (%s kernel): %llu candidates, %llu verified\n",
              w.join.algorithm == Algorithm::kCLP ? "nested-loop" : "prefix-index",
              static_cast<unsigned long long>(probes.probe_candidates),
              static_cast<unsigned long long>(probes.probe_verified));
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

int Run(const Workload& w, uint64_t seed, const std::string& dir,
        double seconds, bool trace, const std::string& trace_out) {
  const std::string spill_dir = dir + "/spill";
  const std::string output = dir + "/pairs.txt";
  std::vector<std::string> inputs;
  for (int i = 0; i < w.num_inputs; ++i) inputs.push_back(InputPath(dir, i));

  SpanRecorder recorder;
  std::map<int, Reference> refs;
  std::vector<Pass> passes;
  std::vector<std::string> errors;

  // Warm-up pass: fills the page cache and the allocator like the timed
  // passes will find them, and becomes input 0's reference.
  Pass warmup = RunPass(w, inputs[0], output, spill_dir, nullptr, 0);
  CheckPass(output, &refs, &warmup);
  if (!warmup.ok) errors.push_back("warm-up pass: " + warmup.error);

  // Closed loop, one client: the next pass starts when the previous one
  // is done, and no pass starts that would likely end after `seconds`.
  // Every input is passed at least once; in a traced run, every second
  // pass is traced.
  const size_t min_passes = std::max<size_t>(trace ? 4 : 3, inputs.size());
  Stopwatch clock;
  std::vector<double> pass_wall;
  while (passes.size() < min_passes ||
         clock.ElapsedSeconds() + Median(pass_wall) <= seconds) {
    const int id = static_cast<int>(passes.size()) + 1;
    const int input = static_cast<int>(passes.size() % inputs.size());
    const bool traced = trace && passes.size() % 2 == 1;
    Stopwatch wall;
    Pass pass = RunPass(w, inputs[input], output, spill_dir,
                        traced ? &recorder : nullptr, id);
    pass.input = input;
    pass.traced = traced;
    CheckPass(output, &refs, &pass);
    if (!pass.ok) errors.push_back("pass " + std::to_string(id) + ": " + pass.error);
    passes.push_back(std::move(pass));
    pass_wall.push_back(wall.ElapsedSeconds());
  }
  const double measured_s = clock.ElapsedSeconds();
  const double peak_rss_mb = PeakRssMb();
  const std::vector<double> extra_setups =
      ExtraSetups(w, inputs, spill_dir, passes.size());

  // Untimed full checks; a failing input fails every pass over it.
  Stopwatch check_clock;
  for (const auto& [input, ref] : refs) {
    Status s = CheckInput(w, inputs[input], ref, seed + input, spill_dir);
    if (s.ok()) continue;
    errors.push_back("input " + std::to_string(input) + ": " + s.ToString());
    if (input == 0) warmup.ok = false;
    for (Pass& p : passes) {
      if (p.input == input) p.ok = false;
    }
  }
  if (refs.size() != inputs.size()) errors.push_back("an input has no checked pass");
  const double check_s = check_clock.ElapsedSeconds();

  Probes probes;
  if (trace) {
    auto dataset = ReadRankings(inputs[0], kK);
    if (dataset.ok()) {
      probes = RunProbes(w, *dataset, seed, spill_dir, &recorder, 0);
    } else {
      probes.status = dataset.status();
    }
    if (!probes.status.ok()) errors.push_back("probes: " + probes.status.ToString());
  }

  const size_t attempted = passes.size() + 1;
  size_t failed = warmup.ok ? 0 : 1;
  for (const Pass& p : passes) failed += p.ok ? 0 : 1;
  const bool correct = errors.empty();

  std::printf(
      "workload %s, seed %llu: %zu timed passes over %zu input(s) in %.3f s%s; "
      "full output check %.3f s\n",
      w.name.c_str(), static_cast<unsigned long long>(seed), passes.size(),
      inputs.size(), measured_s, trace ? ", every second one traced" : "",
      check_s);
  Metrics metrics;
  AddEndToEnd(passes, extra_setups, attempted, failed, peak_rss_mb, &metrics);
  if (trace) AddPerLayer(w, passes, inputs, recorder, probes, &metrics);
  for (const auto& [name, metric] : metrics) {
    std::printf("metric %-34s %.9g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  for (const std::string& e : errors) std::printf("FAILED %s\n", e.c_str());

  if (trace && !trace_out.empty()) {
    if (std::FILE* f = std::fopen(trace_out.c_str(), "w")) {
      const std::string json = recorder.ToChromeJson();
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("trace written to %s\n", trace_out.c_str());
    } else {
      std::printf("warning: cannot write %s\n", trace_out.c_str());
    }
  }

  // Last line: the result, for perfbench/run.py.
  std::string json = "{\"correct\":" + std::string(correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(attempted) +
                     ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
  char number[64];
  const char* separator = "";
  for (const auto& [name, metric] : metrics) {
    std::snprintf(number, sizeof(number), "%.17g", metric.value);
    json += separator;
    json += JsonString(name) + ":{\"value\":" + number +
            ",\"unit\":" + JsonString(metric.unit) + "}";
    separator = ",";
  }
  json += "},\"counters\":{";
  separator = "";
  for (const auto& [input, ref] : refs) {
    json += separator;
    json += "\"" + std::to_string(input) + "\":[";
    for (size_t i = 0; i < ref.counters.size(); ++i) {
      if (i > 0) json += ",";
      json += std::to_string(ref.counters[i]);
    }
    json += "]";
    separator = ",";
  }
  std::snprintf(number, sizeof(number), "%016llx",
                static_cast<unsigned long long>(refs.count(0) ? refs.at(0).digest : 0));
  json += "},\"digest\":\"" + std::string(number) + "\"}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s gen --workload W --seed S --dir D\n"
               "       %s run --workload W --seed S --dir D --seconds T "
               "--trace 0|1 [--trace-out FILE]\n"
               "workloads: vj-dense clp-dense scale-spill small-batch\n",
               argv0, argv0);
  return 2;
}

}  // namespace
}  // namespace rankjoin::perfbench

int main(int argc, char** argv) {
  using namespace rankjoin::perfbench;
  if (argc < 2) return Usage(argv[0]);
  const std::string command = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage(argv[0]);
    flags[argv[i] + 2] = argv[i + 1];
  }
  if ((argc - 2) % 2 != 0) return Usage(argv[0]);
  const auto workload = FindWorkload(flags["workload"]);
  if (!workload || flags["dir"].empty() || flags["seed"].empty()) {
    return Usage(argv[0]);
  }
  const uint64_t seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  if (command == "gen") return Generate(*workload, seed, flags["dir"]);
  if (command != "run" || flags["seconds"].empty()) return Usage(argv[0]);
  const double seconds = std::atof(flags["seconds"].c_str());
  const bool trace = flags["trace"] == "1";
  return Run(*workload, seed, flags["dir"], seconds, trace, flags["trace-out"]);
}
