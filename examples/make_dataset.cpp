// Dataset generator CLI: writes a synthetic top-k workload (and
// optionally its xN scaled variant) in the text format rankjoin_cli
// reads.
//
//   make_dataset --output data.txt [--preset dblp|orku|orku25]
//                [--n 4000] [--k 10] [--domain 2000] [--skew 1.05]
//                [--near-dup 0.15] [--exact-dup 0.02] [--seed 42]
//                [--scale 1] [--flat-out data.rkjc]
//
// --flat-out additionally (or, with --output "", only) writes the
// binary columnar RKJC file rankjoin_cli --mmap loads zero-copy.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "data/generator.h"
#include "data/io.h"
#include "data/scale.h"
#include "data/stats.h"
#include "parse_number.h"

int main(int argc, char** argv) {
  using namespace rankjoin;

  GeneratorOptions options = DblpLikeOptions();
  std::string output;
  std::string flat_out;
  int scale = 1;

  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--output")) {
      output = next("--output");
    } else if (!std::strcmp(argv[i], "--flat-out")) {
      flat_out = next("--flat-out");
    } else if (!std::strcmp(argv[i], "--preset")) {
      const std::string preset = next("--preset");
      if (preset == "dblp") {
        options = DblpLikeOptions();
      } else if (preset == "orku") {
        options = OrkuLikeOptions();
      } else if (preset == "orku25") {
        options = OrkuLikeK25Options();
      } else {
        std::fprintf(stderr, "unknown preset: %s\n", preset.c_str());
        return 2;
      }
    } else if (!std::strcmp(argv[i], "--n")) {
      options.num_rankings =
          ParseNumber("--n", next("--n"), size_t{0}, SIZE_MAX);
    } else if (!std::strcmp(argv[i], "--k")) {
      options.k = ParseNumber("--k", next("--k"), 1, 65535);
    } else if (!std::strcmp(argv[i], "--domain")) {
      options.domain_size =
          ParseNumber("--domain", next("--domain"), uint32_t{1}, UINT32_MAX);
    } else if (!std::strcmp(argv[i], "--skew")) {
      options.zipf_skew = ParseNumber("--skew", next("--skew"), 0.0, 100.0);
    } else if (!std::strcmp(argv[i], "--near-dup")) {
      options.near_duplicate_rate =
          ParseNumber("--near-dup", next("--near-dup"), 0.0, 1.0);
    } else if (!std::strcmp(argv[i], "--exact-dup")) {
      options.exact_duplicate_rate =
          ParseNumber("--exact-dup", next("--exact-dup"), 0.0, 1.0);
    } else if (!std::strcmp(argv[i], "--seed")) {
      options.seed =
          ParseNumber("--seed", next("--seed"), uint64_t{0}, UINT64_MAX);
    } else if (!std::strcmp(argv[i], "--scale")) {
      scale = ParseNumber("--scale", next("--scale"), 1, 1 << 20);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  if (output.empty() && flat_out.empty()) {
    std::fprintf(stderr,
                 "usage: %s --output FILE [--flat-out FILE] "
                 "[--preset dblp|orku|orku25] "
                 "[--n N] [--k K] [--domain D] [--skew S] [--near-dup R] "
                 "[--exact-dup R] [--seed S] [--scale X]\n",
                 argv[0]);
    return 2;
  }

  if (options.domain_size < static_cast<uint32_t>(options.k)) {
    std::fprintf(stderr, "--domain (%u) must be at least --k (%d)\n",
                 options.domain_size, options.k);
    return 2;
  }

  RankingDataset dataset = GenerateDataset(options);
  if (scale > 1) {
    dataset = ScaleDataset(dataset, scale, options.domain_size);
  }
  if (!output.empty()) {
    if (Status s = WriteRankings(output, dataset); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote %zu rankings to %s\n", dataset.size(),
                output.c_str());
  }
  if (!flat_out.empty()) {
    if (Status s = WriteFlatRankings(flat_out, dataset); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote %zu rankings (columnar) to %s\n", dataset.size(),
                flat_out.c_str());
  }
  std::printf("%s\n", ComputeDatasetStats(dataset).ToString().c_str());
  return 0;
}
