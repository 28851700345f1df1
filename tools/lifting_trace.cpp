// lifting_trace — flight-recorder dump tool (DESIGN.md §13).
//
// Merges the binary trace dumps that `lifting_node` daemons (or a traced
// simulator run) wrote, orders the records on the deployment's shared
// virtual-time axis, and exports one Chrome `trace_event` JSON timeline
// (load it in chrome://tracing or Perfetto; each node renders as a pid
// row). Doubles as the coverage checker of the traced CI smoke
// (--require) and as a command-line front end for the blame-provenance
// forensics (--explain).
//
//   ./lifting_trace --out merged.json traces/node*.trace
//   ./lifting_trace --require engine,verdict,blame traces/node*.trace
//   ./lifting_trace --explain 7 traces/node*.trace
//
// Exit status: 0 = merged (and every required seam category has at least
// one record), 1 = unreadable dump or a required category is empty,
// 2 = usage error.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/parse_number.hpp"
#include "common/types.hpp"
#include "obs/explain.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"

namespace {

using namespace lifting;

int usage() {
  std::fprintf(stderr,
               "usage: lifting_trace [--out FILE|-] [--merged-dump FILE] "
               "[--require CAT[,CAT...]] [--explain NODE] [--quiet] "
               "DUMP [DUMP...]\n"
               "  --out FILE      write the merged Chrome trace JSON "
               "(- = stdout)\n"
               "  --merged-dump F write the merged records as one binary "
               "dump\n"
               "  --require CATS  fail unless every listed seam category "
               "(engine, verdict, audit, blame, expel, handoff, rps, "
               "adversary, fault) has >= 1 record\n"
               "  --explain NODE  print the blame-provenance report for "
               "NODE instead of JSON\n");
  return 2;
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > start) out.push_back(csv.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::string merged_dump_path;
  std::string require_csv;
  bool have_explain = false;
  bool quiet = false;
  std::uint32_t explain_node = 0;
  std::vector<std::string> dumps;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--out") {
      out_path = next();
    } else if (arg == "--merged-dump") {
      merged_dump_path = next();
    } else if (arg == "--require") {
      require_csv = next();
    } else if (arg == "--explain") {
      explain_node = parse_arg<std::uint32_t>(arg, next());
      have_explain = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      return usage();
    } else {
      dumps.push_back(arg);
    }
  }
  if (dumps.empty()) return usage();

  // ---- read + merge
  std::vector<obs::TraceRecord> records;
  for (const auto& path : dumps) {
    std::uint32_t node = 0;
    const std::size_t before = records.size();
    if (!obs::read_binary_dump(path, records, &node)) {
      std::fprintf(stderr, "lifting_trace: unreadable dump: %s\n",
                   path.c_str());
      return 1;
    }
    if (!quiet) {
      std::fprintf(stderr, "lifting_trace: %s: node %u, %zu records\n",
                   path.c_str(),
                   node, records.size() - before);
    }
  }
  obs::sort_for_merge(records);

  // ---- per-category coverage (the traced-smoke contract)
  std::uint64_t by_kind[obs::kEventKindCount] = {};
  for (const auto& record : records) {
    ++by_kind[static_cast<std::size_t>(record.kind)];
  }
  if (!quiet) {
    std::fprintf(stderr, "lifting_trace: merged %zu records\n",
                 records.size());
    for (std::size_t k = 0; k < obs::kEventKindCount; ++k) {
      if (by_kind[k] == 0) continue;
      const auto kind = static_cast<obs::EventKind>(k);
      std::fprintf(stderr, "  %-10s %-18s %llu\n", obs::kind_category(kind),
                   obs::kind_name(kind),
                   static_cast<unsigned long long>(by_kind[k]));
    }
  }
  if (!require_csv.empty()) {
    bool all_covered = true;
    for (const auto& category : split_csv(require_csv)) {
      std::uint64_t count = 0;
      bool known = false;
      for (std::size_t k = 0; k < obs::kEventKindCount; ++k) {
        const auto kind = static_cast<obs::EventKind>(k);
        if (category == obs::kind_category(kind)) {
          known = true;
          count += by_kind[k];
        }
      }
      if (!known) {
        std::fprintf(stderr, "lifting_trace: unknown category: %s\n",
                     category.c_str());
        return 2;
      }
      if (count == 0) {
        std::fprintf(stderr,
                     "lifting_trace: required seam category '%s' has no "
                     "records\n",
                     category.c_str());
        all_covered = false;
      }
    }
    if (!all_covered) return 1;
  }

  // ---- outputs
  if (have_explain) {
    // The forensic walk reads a ring; rebuild one over the merged records.
    obs::TraceRing ring;
    ring.arm(records.empty() ? 1 : records.size());
    for (const auto& record : records) ring.append(record);
    const std::string report = obs::explain(ring, NodeId{explain_node});
    std::fputs(report.c_str(), stdout);
  }
  if (!merged_dump_path.empty()) {
    if (!obs::write_binary_dump(merged_dump_path, records,
                                obs::kDumpWholeDeployment)) {
      std::fprintf(stderr, "lifting_trace: cannot write %s\n",
                   merged_dump_path.c_str());
      return 1;
    }
  }
  if (!out_path.empty()) {
    if (out_path == "-") {
      obs::write_chrome_trace(std::cout, records);
    } else {
      std::ofstream out(out_path, std::ios::binary);
      if (!out) {
        std::fprintf(stderr, "lifting_trace: cannot write %s\n",
                     out_path.c_str());
        return 1;
      }
      obs::write_chrome_trace(out, records);
    }
  }
  return 0;
}
