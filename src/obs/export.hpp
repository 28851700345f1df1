#ifndef LIFTING_OBS_EXPORT_HPP
#define LIFTING_OBS_EXPORT_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/trace.hpp"

/// Trace exporters (DESIGN.md §13).
///
/// Two formats share the TraceRecord layout:
///  - Chrome `trace_event` JSON (catapult / chrome://tracing / Perfetto):
///    one instant event per record, pid = acting node, categories = seam
///    categories, so a deployment's timeline renders per-node rows.
///  - A compact binary dump: a 24-byte header followed by the raw 32-byte
///    records. This is what each `lifting_node` process writes at
///    shutdown; `lifting_trace` merges per-node dumps by timestamp into
///    one Chrome JSON timeline.

namespace lifting::obs {

/// Binary dump header magic ("LFTR") and current format version.
inline constexpr std::uint32_t kDumpMagic = 0x5254464CU;
inline constexpr std::uint32_t kDumpVersion = 1;

/// Node id recorded in a dump that covers a whole simulated deployment
/// rather than a single wire process.
inline constexpr std::uint32_t kDumpWholeDeployment = 0xFFFFFFFFU;

/// Snapshots the retained records oldest-first.
[[nodiscard]] std::vector<TraceRecord> to_vector(const TraceRing& ring);

/// Writes `header node` + the records to `path`. Returns false on I/O
/// failure (reported, not thrown — exporters run at teardown).
bool write_binary_dump(const std::string& path,
                       const std::vector<TraceRecord>& records,
                       std::uint32_t node);
bool write_binary_dump(const std::string& path, const TraceRing& ring,
                       std::uint32_t node);

/// Appends the dump's records to `out` (order preserved); `node` receives
/// the header's node id when non-null. Returns false, leaving `out` as it
/// was, on a missing file, bad magic, an unsupported version, a record
/// count that disagrees with the file's size, or an unknown record kind.
/// Nothing is allocated before the count has been checked against the
/// file, so a hostile header cannot make the reader allocate without bound.
bool read_binary_dump(const std::string& path,
                      std::vector<TraceRecord>& out,
                      std::uint32_t* node = nullptr);

/// Sorts records by (timestamp, actor, kind) — the canonical merge order
/// of multi-node dumps. Stable, so same-key records keep input order.
void sort_for_merge(std::vector<TraceRecord>& records);

/// Writes the records as one Chrome trace_event JSON object
/// (`{"traceEvents": [...]}`), timestamps in microseconds.
void write_chrome_trace(std::ostream& os,
                        const std::vector<TraceRecord>& records);

}  // namespace lifting::obs

#endif  // LIFTING_OBS_EXPORT_HPP
