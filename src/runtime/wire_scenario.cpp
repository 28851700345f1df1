#include "runtime/wire_scenario.hpp"

#include <algorithm>
#include <array>
#include <concepts>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>

#include "common/parse_number.hpp"

namespace lifting::runtime {

namespace {

/// The field table: every ScenarioConfig field the wire carries, named
/// once, in wire order. Encode (Writer), decode (Matcher) and the
/// wire_supported catch-all all walk it, so a key cannot be written without
/// being read. `Config` is ScenarioConfig or const ScenarioConfig.
template <typename Config, typename F>
void visit_fields(Config& c, F&& f) {
  f("nodes", c.nodes);
  f("seed", c.seed);
  f("duration_us", c.duration);

  f("gossip.fanout", c.gossip.fanout);
  f("gossip.period_us", c.gossip.period);
  f("gossip.request_timeout_us", c.gossip.request_timeout);
  f("gossip.proposal_retention_periods", c.gossip.proposal_retention_periods);
  f("gossip.max_request_per_proposal", c.gossip.max_request_per_proposal);

  f("stream.bitrate_bps", c.stream.bitrate_bps);
  f("stream.chunk_payload_bytes", c.stream.chunk_payload_bytes);
  f("stream.duration_us", c.stream.duration);

  f("lifting_enabled", c.lifting_enabled);
  auto& lp = c.lifting;
  f("lifting.fanout", lp.fanout);
  f("lifting.period_us", lp.period);
  f("lifting.nominal_request_size", lp.nominal_request_size);
  f("lifting.p_dcc", lp.p_dcc);
  f("lifting.loss_estimate", lp.loss_estimate);
  f("lifting.compensation_factor", lp.compensation_factor);
  f("lifting.dv_timeout_us", lp.dv_timeout);
  f("lifting.ack_timeout_us", lp.ack_timeout);
  f("lifting.confirm_timeout_us", lp.confirm_timeout);
  f("lifting.adaptive_pdcc", lp.adaptive_pdcc);
  f("lifting.adaptive_min_pdcc", lp.adaptive_min_pdcc);
  f("lifting.adaptive_decay", lp.adaptive_decay);
  f("lifting.adaptive_noise_multiple", lp.adaptive_noise_multiple);
  f("lifting.managers", lp.managers);
  f("lifting.eta", lp.eta);
  f("lifting.score_vote", lp.score_vote);
  f("lifting.expel_slack", lp.expel_slack);
  f("lifting.min_score_replies", lp.min_score_replies);
  f("lifting.score_reply_timeout_us", lp.score_reply_timeout);
  f("lifting.expel_vote_timeout_us", lp.expel_vote_timeout);
  f("lifting.score_check_probability", lp.score_check_probability);
  f("lifting.min_periods_before_detection", lp.min_periods_before_detection);
  f("lifting.gamma", lp.gamma);
  f("lifting.history_window_us", lp.history_window);
  f("lifting.audit_probability", lp.audit_probability);
  f("lifting.audit_warmup_periods", lp.audit_warmup_periods);
  f("lifting.audit_poll_timeout_us", lp.audit_poll_timeout);
  f("lifting.min_fanin_samples", lp.min_fanin_samples);
  f("lifting.rate_tolerance", lp.rate_tolerance);
  f("lifting.history_retention_us", lp.history_retention);
  f("lifting.audit_channel", lp.audit_channel);
  f("lifting.audit_max_retries", lp.audit_max_retries);
  f("lifting.audit_retry_base_us", lp.audit_retry_base);
  f("lifting.audit_retry_jitter", lp.audit_retry_jitter);
  f("lifting.audit_dedup_cap", lp.audit_dedup_cap);
  f("lifting.blame_dedup_window_us", lp.blame_dedup_window);

  auto& fp = c.faults;
  f("faults.p_good_to_bad", fp.p_good_to_bad);
  f("faults.p_bad_to_good", fp.p_bad_to_good);
  f("faults.loss_good", fp.loss_good);
  f("faults.loss_bad", fp.loss_bad);
  f("faults.delay_spike_probability", fp.delay_spike_probability);
  f("faults.delay_spike_min_us", fp.delay_spike_min);
  f("faults.delay_spike_max_us", fp.delay_spike_max);
  f("faults.duplicate_probability", fp.duplicate_probability);
  f("faults.reorder_probability", fp.reorder_probability);
  f("faults.reorder_delay_us", fp.reorder_delay);
  // The window count, then each window's rows under kWindowPrefix.
  f("faults.partitions", fp.partitions);

  f("freerider_fraction", c.freerider_fraction);
  auto& fb = c.freerider_behavior;
  f("behavior.delta_fanout", fb.delta_fanout);
  f("behavior.delta_propose", fb.delta_propose);
  f("behavior.delta_serve", fb.delta_serve);
  f("behavior.period_stretch", fb.period_stretch);
  f("behavior.lie_in_history", fb.lie_in_history);
}

/// The rows of one partition window, keyed `faults.partition.<i>.<name>`.
constexpr std::string_view kWindowPrefix = "faults.partition.";
/// Scenario files are human-scale: caps the window count and index (and so
/// the resize a hostile key can ask for).
constexpr std::uint64_t kMaxWindows = 4096;

template <typename Window, typename F>
void visit_window(Window& w, F&& f) {
  f("start_us", w.start);
  f("end_us", w.end);
  f("modulus", w.modulus);
  f("remainder", w.remainder);
  f("drop_island_to_main", w.drop_island_to_main);
  f("drop_main_to_island", w.drop_main_to_island);
}

/// Wire spellings of the enum fields, indexed by enumerator value.
using Spellings = std::array<std::string_view, 2>;
Spellings spellings(LiftingParams::ScoreVote) { return {"min", "mean"}; }
Spellings spellings(LiftingParams::AuditChannel) {
  return {"modeled_tcp", "reliable_udp"};
}

/// Encode side: one `key value` line per field. Integers and bools print
/// in decimal, durations as integer microseconds, doubles with round-trip
/// precision, enums by name.
struct Writer {
  std::string& out;
  std::string prefix;

  void put(std::string_view key, std::string_view value) {
    out.append(prefix).append(key).append(" ").append(value).push_back('\n');
  }
  void operator()(std::string_view key, std::unsigned_integral auto v) {
    put(key, std::to_string(static_cast<std::uint64_t>(v)));
  }
  void operator()(std::string_view key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    put(key, buf);
  }
  void operator()(std::string_view key, Duration d) {
    (*this)(key, static_cast<std::uint64_t>(d.count()));
  }
  template <typename E>
    requires std::is_enum_v<E>
  void operator()(std::string_view key, E v) {
    const auto i = static_cast<std::size_t>(v);
    put(key, i < spellings(v).size() ? spellings(v)[i] : "?");
  }
  void operator()(std::string_view key,
                  const std::vector<faults::PartitionWindow>& windows) {
    (*this)(key, windows.size());
    for (std::size_t i = 0; i < windows.size(); ++i) {
      Writer row{out, std::string(kWindowPrefix) + std::to_string(i) + "."};
      visit_window(windows[i], row);
    }
  }
};

bool parse(std::string_view text, std::unsigned_integral auto& field) {
  return parse_number(text, field);
}
bool parse(std::string_view text, bool& field) {
  field = text == "1";
  return text == "0" || text == "1";
}
bool parse(std::string_view text, double& field) {
  return parse_number(text, field);
}
bool parse(std::string_view text, Duration& field) {
  Duration::rep us = 0;  // signed, so the sign is refused by hand
  if (text.starts_with('-') || !parse_number(text, us)) return false;
  field = Duration{us};
  return true;
}
template <typename E>
  requires std::is_enum_v<E>
bool parse(std::string_view text, E& field) {
  const auto names = spellings(field);
  const auto it = std::find(names.begin(), names.end(), text);
  field = static_cast<E>(it - names.begin());
  return it != names.end();
}

/// Decode side: applies one `key value` line to the field it names.
struct Matcher {
  std::string_view key;
  std::string_view value;
  bool matched = false;
  bool ok = true;

  template <typename T>
  void operator()(std::string_view name, T& field) {
    if (matched || key != name) return;
    matched = true;
    ok = parse(value, field);
  }
  /// The count key resizes; indexed keys grow the list on demand, so their
  /// order relative to the count key cannot matter.
  void operator()(std::string_view name,
                  std::vector<faults::PartitionWindow>& windows) {
    if (matched) return;
    std::uint64_t n = 0;
    if (key == name) {
      matched = true;
      ok = parse_number(value, n) && n <= kMaxWindows;
      if (ok) windows.resize(n);
      return;
    }
    if (!key.starts_with(kWindowPrefix)) return;
    const auto rest = key.substr(kWindowPrefix.size());
    const auto dot = rest.find('.');
    if (dot == std::string_view::npos ||
        !parse_number(rest.substr(0, dot), n) || n > kMaxWindows) {
      return;  // unknown key
    }
    if (n >= windows.size()) windows.resize(n + 1);
    Matcher row{rest.substr(dot + 1), value};
    visit_window(windows[n], row);
    matched = row.matched;
    ok = row.ok;
  }
};

/// A ScenarioConfig field the wire codec does not carry, named, with why.
/// wire_supported refuses a config in which one differs from its default.
struct SimOnlyField {
  std::string_view name;
  std::string_view reason;
  bool differs;
};

std::array<SimOnlyField, 20> sim_only_fields(const ScenarioConfig& c) {
  static const ScenarioConfig d;
  constexpr std::string_view kChurn = "churn and handoff are simulator-only";
  constexpr std::string_view kExpel = "expulsion is simulator-only";
  constexpr std::string_view kRps = "the RPS substrate is simulator-only";
  const auto &m = c.membership, &dm = d.membership;
  return {{
      {"timeline", kChurn, c.timeline != d.timeline},
      {"adversary", "adaptive adversaries are simulator-only",
       c.adversary != d.adversary},
      {"expulsion_enabled", kExpel, c.expulsion_enabled != d.expulsion_enabled},
      {"expulsion_propagation", kExpel,
       c.expulsion_propagation != d.expulsion_propagation},
      {"view_propagation", "divergent membership views are simulator-only",
       c.view_propagation != d.view_propagation},
      {"freerider_behavior.collusion", "collusion is simulator-only",
       c.freerider_behavior.collusion != d.freerider_behavior.collusion},
      {"membership.rps_partner_sampling", kRps,
       m.rps_partner_sampling != dm.rps_partner_sampling},
      {"membership.rps_round_period", kRps,
       m.rps_round_period != dm.rps_round_period},
      {"membership.view_size", kRps, m.view_size != dm.view_size},
      {"membership.shuffle_length", kRps,
       m.shuffle_length != dm.shuffle_length},
      {"membership.bootstrap_rounds", kRps,
       m.bootstrap_rounds != dm.bootstrap_rounds},
      {"membership.sampler", kRps, m.sampler != dm.sampler},
      {"membership.attack", kRps, m.attack != dm.attack},
      {"failure_detection", kChurn, c.failure_detection != d.failure_detection},
      {"manager_handoff", kChurn, c.manager_handoff != d.manager_handoff},
      {"manager_handoff_delay", kChurn,
       c.manager_handoff_delay != d.manager_handoff_delay},
      {"expulsion_handoff", kChurn, c.expulsion_handoff != d.expulsion_handoff},
      {"rejoin_scores", kChurn, c.rejoin_scores != d.rejoin_scores},
      {"carried_manager_store", kChurn,
       c.carried_manager_store != d.carried_manager_store},
      {"gossip.emit_acks", "derived from lifting_enabled on every node",
       c.gossip.emit_acks != d.gossip.emit_acks},
  }};
}

}  // namespace

bool wire_supported(const ScenarioConfig& config, std::string* why) {
  const auto unsupported = [&](std::string what) {
    if (why != nullptr) *why = std::move(what);
    return false;
  };
  if (config.nodes > kMaxWireNodes) {
    return unsupported("nodes must be at most " +
                       std::to_string(kMaxWireNodes));
  }
  for (const auto& field : sim_only_fields(config)) {
    if (field.differs) {
      return unsupported(std::string(field.name) + ": " +
                         std::string(field.reason));
    }
  }
  // Catch-all: whatever the table does not carry must be at its default,
  // so a field added later is refused here instead of silently dropped.
  std::string error;
  auto carried = decode_wire_scenario(encode_wire_scenario(config), &error);
  if (!carried.has_value()) return unsupported(error);
  // Link profiles (the weak class differs only by its profile) are
  // simulator physics: the wire has its own, so they are ignored.
  carried->link = config.link;
  carried->weak_fraction = config.weak_fraction;
  carried->weak_link = config.weak_link;
  if (*carried != config) {
    return unsupported("a field the wire codec does not carry differs from "
                       "its default");
  }
  return true;
}

std::string encode_wire_scenario(const ScenarioConfig& config) {
  std::string out;
  out.reserve(2048);
  out.append("# lifting wire scenario\n");
  visit_fields(config, Writer{out, {}});
  return out;
}

std::optional<ScenarioConfig> decode_wire_scenario(const std::string& text,
                                                   std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  ScenarioConfig cfg;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.find(' ');
    if (space == std::string::npos || space == 0 || space + 1 >= line.size()) {
      return fail("malformed line: " + line);
    }
    Matcher m{std::string_view(line).substr(0, space),
              std::string_view(line).substr(space + 1)};
    visit_fields(cfg, m);
    if (!m.matched) return fail("unknown key: " + line);
    if (!m.ok) return fail("bad value: " + line);
  }
  try {
    cfg.validate();
  } catch (const std::invalid_argument& e) {
    return fail(std::string("invalid scenario: ") + e.what());
  }
  return cfg;
}

}  // namespace lifting::runtime
