#include "data/io.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <unordered_set>

namespace rankjoin {

namespace {

bool IsBlank(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

/// Parses all of [begin, end) as a decimal uint32; false when the token
/// has any non-digit (a sign included) or exceeds 2^32 - 1.
bool ParseU32(const char* begin, const char* end, uint32_t* out) {
  const auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

Result<RankingDataset> ReadRankings(const std::string& path, int k) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);

  RankingDataset dataset;
  dataset.k = k;
  std::string line;
  size_t line_number = 0;
  // 64-bit so that the implicit id after 2^32 - 1 is detected, not
  // wrapped to 0.
  uint64_t next_id = 0;
  auto error = [&](const std::string& what) {
    return Status::IoError(path + ":" + std::to_string(line_number) + ": " +
                           what);
  };
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    const char* p = line.data();
    const char* const end = p + line.size();

    RankingId id = 0;
    const char* colon =
        static_cast<const char*>(std::memchr(p, ':', line.size()));
    if (colon != nullptr) {
      const char* id_begin = p;
      const char* id_end = colon;
      while (id_begin < id_end && IsBlank(*id_begin)) ++id_begin;
      while (id_end > id_begin && IsBlank(id_end[-1])) --id_end;
      if (!ParseU32(id_begin, id_end, &id)) {
        return error("malformed id '" + std::string(id_begin, id_end) +
                     "' before ':' (expected an integer in [0, 2^32))");
      }
      p = colon + 1;
    } else if (next_id > std::numeric_limits<RankingId>::max()) {
      return error("no implicit id left after 4294967295");
    } else {
      id = static_cast<RankingId>(next_id);
    }

    std::vector<ItemId> items;
    items.reserve(static_cast<size_t>(std::max(k, 0)));
    while (true) {
      while (p < end && IsBlank(*p)) ++p;
      if (p == end) break;
      const char* token = p;
      while (p < end && !IsBlank(*p)) ++p;
      ItemId item = 0;
      if (!ParseU32(token, p, &item)) {
        return error("malformed item '" + std::string(token, p) +
                     "' (expected an integer in [0, 2^32))");
      }
      items.push_back(item);
    }
    if (static_cast<int>(items.size()) != k) {
      return error("expected " + std::to_string(k) + " items, found " +
                   std::to_string(items.size()));
    }
    Ranking ranking(id, std::move(items));
    if (!ranking.IsValid()) return error("duplicate item in ranking");
    dataset.rankings.push_back(std::move(ranking));
    next_id = std::max<uint64_t>(next_id, id) + 1;
  }
  return dataset;
}

Status WriteRankings(const std::string& path, const RankingDataset& dataset) {
  // Validate() also keeps store() from reading a short ranking.
  RANKJOIN_RETURN_NOT_OK(dataset.Validate());
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  // From the store, not `rankings`: mmap-loaded datasets have only the
  // store.
  const FlatRankings& flat = dataset.store();
  for (size_t i = 0; i < flat.size(); ++i) {
    const RankingView v = flat.view(i);
    out << v.id << ':';
    for (uint32_t r = 0; r < v.k; ++r) out << ' ' << v.items[r];
    out << '\n';
  }
  if (!out) return Status::IoError("short write to " + path);
  return Status::OK();
}

RankingDataset PreprocessSets(const std::vector<std::vector<ItemId>>& records,
                              int k) {
  RankingDataset dataset;
  dataset.k = k;
  std::unordered_set<std::string> seen_records;
  RankingId next_id = 0;
  for (const auto& record : records) {
    // Duplicate-record removal operates on the full record, as in [10].
    std::string fingerprint;
    fingerprint.reserve(record.size() * sizeof(ItemId));
    for (ItemId item : record) {
      fingerprint.append(reinterpret_cast<const char*>(&item), sizeof(item));
    }
    if (!seen_records.insert(fingerprint).second) continue;

    // Cut to the first k distinct tokens.
    std::vector<ItemId> items;
    std::unordered_set<ItemId> present;
    for (ItemId item : record) {
      if (static_cast<int>(items.size()) == k) break;
      if (present.insert(item).second) items.push_back(item);
    }
    if (static_cast<int>(items.size()) < k) continue;
    dataset.rankings.emplace_back(next_id++, std::move(items));
  }
  return dataset;
}

Status WriteResultPairs(
    const std::string& path,
    const std::vector<std::pair<RankingId, RankingId>>& pairs) {
  std::vector<std::pair<RankingId, RankingId>> sorted = pairs;
  std::sort(sorted.begin(), sorted.end());
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  for (const auto& [a, b] : sorted) out << a << ' ' << b << '\n';
  if (!out) return Status::IoError("short write to " + path);
  return Status::OK();
}

namespace {

constexpr char kFlatMagic[4] = {'R', 'K', 'J', 'C'};
constexpr uint32_t kFlatVersion = 1;
constexpr size_t kFlatHeaderBytes = 20;  // magic + version + k + count

void PutU32(char* out, uint32_t v) {
  out[0] = static_cast<char>(v & 0xff);
  out[1] = static_cast<char>((v >> 8) & 0xff);
  out[2] = static_cast<char>((v >> 16) & 0xff);
  out[3] = static_cast<char>((v >> 24) & 0xff);
}

uint32_t GetU32(const char* in) {
  return static_cast<uint32_t>(static_cast<unsigned char>(in[0])) |
         static_cast<uint32_t>(static_cast<unsigned char>(in[1])) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(in[2])) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(in[3])) << 24;
}

/// Keeps an mmap region (and its fd-independent lifetime) alive for as
/// long as any FlatRankings wraps it.
struct MmapRegion {
  void* addr = nullptr;
  size_t bytes = 0;
  ~MmapRegion() {
    if (addr != nullptr) munmap(addr, bytes);
  }
};

}  // namespace

Status WriteFlatRankings(const std::string& path,
                         const RankingDataset& dataset) {
  // As in WriteRankings: Validate() keeps store() from reading a short
  // ranking.
  RANKJOIN_RETURN_NOT_OK(dataset.Validate());
  const FlatRankings& flat = dataset.store();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  char header[kFlatHeaderBytes];
  std::memcpy(header, kFlatMagic, 4);
  PutU32(header + 4, kFlatVersion);
  PutU32(header + 8, static_cast<uint32_t>(flat.k()));
  const uint64_t count = flat.size();
  PutU32(header + 12, static_cast<uint32_t>(count & 0xffffffffULL));
  PutU32(header + 16, static_cast<uint32_t>(count >> 32));
  out.write(header, sizeof(header));
  // The in-memory columns are little-endian uint32 on every platform we
  // build for; write them as-is (column writes, no per-record encode).
  out.write(reinterpret_cast<const char*>(flat.ids()),
            static_cast<std::streamsize>(count * sizeof(RankingId)));
  out.write(reinterpret_cast<const char*>(flat.items()),
            static_cast<std::streamsize>(count * flat.k() * sizeof(ItemId)));
  if (!out) return Status::IoError("short write to " + path);
  return Status::OK();
}

Result<RankingDataset> MapFlatRankings(const std::string& path) {
  const int fd = open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IoError("cannot open " + path);
  struct stat st;
  if (fstat(fd, &st) != 0) {
    close(fd);
    return Status::IoError("cannot stat " + path);
  }
  const size_t file_bytes = static_cast<size_t>(st.st_size);
  if (file_bytes < kFlatHeaderBytes) {
    close(fd);
    return Status::IoError(path + ": truncated columnar file (" +
                           std::to_string(file_bytes) + " bytes, header is " +
                           std::to_string(kFlatHeaderBytes) + ")");
  }
  void* addr = mmap(nullptr, file_bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  close(fd);  // the mapping keeps the file alive
  if (addr == MAP_FAILED) {
    return Status::IoError("cannot mmap " + path);
  }
  auto region = std::make_shared<MmapRegion>();
  region->addr = addr;
  region->bytes = file_bytes;

  const char* base = static_cast<const char*>(addr);
  if (std::memcmp(base, kFlatMagic, 4) != 0) {
    return Status::InvalidArgument(path + ": bad magic (not a columnar " +
                                   "ranking file)");
  }
  const uint32_t version = GetU32(base + 4);
  if (version != kFlatVersion) {
    return Status::InvalidArgument(path + ": unsupported columnar version " +
                                   std::to_string(version));
  }
  const uint32_t k = GetU32(base + 8);
  const uint64_t count = static_cast<uint64_t>(GetU32(base + 12)) |
                         static_cast<uint64_t>(GetU32(base + 16)) << 32;
  if (k == 0) {
    return Status::InvalidArgument(path + ": columnar file with k = 0");
  }
  const uint64_t need =
      kFlatHeaderBytes + count * sizeof(RankingId) +
      count * static_cast<uint64_t>(k) * sizeof(ItemId);
  if (file_bytes < need) {
    return Status::IoError(path + ": truncated columnar file (" +
                           std::to_string(file_bytes) + " bytes, need " +
                           std::to_string(need) + ")");
  }
  // Both offsets are 4-byte aligned (20 and 20 + 4*count) on a
  // page-aligned base, so the columns are readable in place.
  const RankingId* ids =
      reinterpret_cast<const RankingId*>(base + kFlatHeaderBytes);
  const ItemId* items = reinterpret_cast<const ItemId*>(
      base + kFlatHeaderBytes + count * sizeof(RankingId));
  auto flat = std::make_shared<const FlatRankings>(FlatRankings::Wrap(
      static_cast<int>(k), static_cast<size_t>(count), ids, items,
      std::move(region)));
  RANKJOIN_RETURN_NOT_OK(flat->Validate());
  RankingDataset dataset;
  dataset.k = static_cast<int>(k);
  dataset.AttachStore(std::move(flat));
  return dataset;
}

}  // namespace rankjoin
