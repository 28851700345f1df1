#include "obs/export.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <ostream>

namespace lifting::obs {

namespace {

struct DumpHeader {
  std::uint32_t magic = kDumpMagic;
  std::uint32_t version = kDumpVersion;
  std::uint32_t node = 0;
  std::uint32_t reserved = 0;
  std::uint64_t count = 0;
};
static_assert(sizeof(DumpHeader) == 24, "stable dump header layout");

}  // namespace

std::vector<TraceRecord> to_vector(const TraceRing& ring) {
  std::vector<TraceRecord> out;
  out.reserve(ring.size());
  for (std::size_t i = 0; i < ring.size(); ++i) out.push_back(ring[i]);
  return out;
}

bool write_binary_dump(const std::string& path,
                       const std::vector<TraceRecord>& records,
                       std::uint32_t node) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "obs: cannot write trace dump %s\n", path.c_str());
    return false;
  }
  DumpHeader header;
  header.node = node;
  header.count = records.size();
  bool ok = std::fwrite(&header, sizeof(header), 1, f) == 1;
  if (ok && !records.empty()) {
    ok = std::fwrite(records.data(), sizeof(TraceRecord), records.size(), f) ==
         records.size();
  }
  ok = (std::fclose(f) == 0) && ok;
  if (!ok) std::fprintf(stderr, "obs: short write on %s\n", path.c_str());
  return ok;
}

bool write_binary_dump(const std::string& path, const TraceRing& ring,
                       std::uint32_t node) {
  return write_binary_dump(path, to_vector(ring), node);
}

bool read_binary_dump(const std::string& path, std::vector<TraceRecord>& out,
                      std::uint32_t* node) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "obs: cannot read trace dump %s\n", path.c_str());
    return false;
  }
  DumpHeader header;
  bool ok = std::fread(&header, sizeof(header), 1, f) == 1 &&
            header.magic == kDumpMagic && header.version == kDumpVersion;
  // The header's count is untrusted: it must describe exactly the bytes
  // that follow the header before anything is sized from it. (Compare by
  // division: count * sizeof(TraceRecord) can wrap.)
  if (ok) {
    const long body_start = std::ftell(f);
    const long file_end = std::fseek(f, 0, SEEK_END) == 0 ? std::ftell(f) : -1;
    ok = body_start >= 0 && file_end >= body_start &&
         std::fseek(f, body_start, SEEK_SET) == 0;
    if (ok) {
      const auto body = static_cast<std::uint64_t>(file_end - body_start);
      ok = body % sizeof(TraceRecord) == 0 &&
           body / sizeof(TraceRecord) == header.count;
    }
  }
  if (ok) {
    const std::size_t base = out.size();
    out.resize(base + header.count);
    ok = std::fread(out.data() + base, sizeof(TraceRecord), header.count, f) ==
         header.count;
    ok = ok && std::all_of(out.begin() + static_cast<std::ptrdiff_t>(base),
                           out.end(), [](const TraceRecord& r) {
                             return static_cast<std::size_t>(r.kind) <
                                    kEventKindCount;
                           });
    if (!ok) out.resize(base);
  }
  std::fclose(f);
  if (!ok) {
    std::fprintf(stderr, "obs: %s is not a readable trace dump\n",
                 path.c_str());
    return false;
  }
  if (node != nullptr) *node = header.node;
  return true;
}

void sort_for_merge(std::vector<TraceRecord>& records) {
  std::stable_sort(records.begin(), records.end(),
                   [](const TraceRecord& a, const TraceRecord& b) {
                     if (a.at_us != b.at_us) return a.at_us < b.at_us;
                     if (a.actor != b.actor) return a.actor < b.actor;
                     return static_cast<std::uint8_t>(a.kind) <
                            static_cast<std::uint8_t>(b.kind);
                   });
}

void write_chrome_trace(std::ostream& os,
                        const std::vector<TraceRecord>& records) {
  os << "{\"traceEvents\":[\n";
  char line[256];
  for (std::size_t i = 0; i < records.size(); ++i) {
    const TraceRecord& r = records[i];
    std::snprintf(
        line, sizeof(line),
        "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"p\","
        "\"ts\":%lld,\"pid\":%u,\"tid\":0,\"args\":{\"subject\":%u,"
        "\"evidence\":%llu,\"value\":%.6g,\"detail\":%u,\"extra\":%u}}%s\n",
        kind_name(r.kind), kind_category(r.kind),
        static_cast<long long>(r.at_us), r.actor, r.subject,
        static_cast<unsigned long long>(r.evidence),
        static_cast<double>(r.value), r.detail, r.extra,
        i + 1 < records.size() ? "," : "");
    os << line;
  }
  os << "]}\n";
}

}  // namespace lifting::obs
