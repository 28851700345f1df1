#ifndef LIFTING_RUNTIME_WIRE_SCENARIO_HPP
#define LIFTING_RUNTIME_WIRE_SCENARIO_HPP

#include <cstdint>
#include <optional>
#include <string>

#include "runtime/scenario.hpp"

/// Text serialization of a ScenarioConfig for the wire deployment: the
/// lifting_loopback launcher encodes the scenario once and pipes it to
/// every lifting_node daemon, which reconstructs an identical config —
/// identical (nodes, seed, params) means every process independently
/// derives the same manager assignment, freerider roles and rng streams,
/// so no further coordination is needed beyond the port roster.
///
/// The format is one `key value` pair per line ('#' starts a comment);
/// durations travel as integer microseconds, doubles with round-trip
/// precision. Unknown keys are an error — the encoder and decoder ship in
/// the same binary, so a mismatch means corruption, not version skew.

namespace lifting::runtime {

/// Largest wire population: each daemon sizes n-indexed tables up front,
/// and the launcher keeps one process slot per node.
inline constexpr std::uint32_t kMaxWireNodes = 4096;

/// True when the wire deployment can run `config` as given: at most
/// kMaxWireNodes nodes, and every field outside the codec's field table
/// (visit_fields in wire_scenario.cpp) at its default. Known simulator-only
/// fields are refused by name (sim_only_fields, same file); behind them, a
/// config that differs from decode(encode(config)) is refused, so a field
/// the table does not carry is never silently dropped. Link profiles and
/// the weak class are ignored: the wire has its own loss and latency. On
/// false, `why` (if non-null) names the first refused field.
[[nodiscard]] bool wire_supported(const ScenarioConfig& config,
                                  std::string* why = nullptr);

/// Serializes the fields of the table, in table order.
[[nodiscard]] std::string encode_wire_scenario(const ScenarioConfig& config);

/// Parses encode_wire_scenario output back into a config (fields start at
/// their defaults, so the round trip is exact on the serialized subset).
/// Returns std::nullopt on malformed, out-of-range, non-finite or invalid
/// (ScenarioConfig::validate) input; `error` (if non-null) says why.
[[nodiscard]] std::optional<ScenarioConfig> decode_wire_scenario(
    const std::string& text, std::string* error = nullptr);

}  // namespace lifting::runtime

#endif  // LIFTING_RUNTIME_WIRE_SCENARIO_HPP
