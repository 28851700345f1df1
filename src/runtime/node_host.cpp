#include "runtime/node_host.hpp"

#include <algorithm>
#include <chrono>

#include "common/assert.hpp"
#include "obs/registry.hpp"
#include "runtime/experiment.hpp"
#include "runtime/wire_scenario.hpp"

namespace lifting::runtime {

namespace {
/// After the stream ends, keep polling this long so in-flight datagrams
/// (tail serves, acks of the final period) land before stats are read.
constexpr Duration kDrainWindow = milliseconds(300);
/// Longest poll_wait nap — bounds how late a timer can fire past its due
/// time when no datagram wakes the loop earlier.
constexpr Duration kMaxNap = milliseconds(5);

/// Runs before any member sizes a table by config.nodes.
const ScenarioConfig& deployable(const ScenarioConfig& config) {
  config.validate();
  std::string why;
  require(wire_supported(config, &why), "wire deployment unsupported: " + why);
  return config;
}
}  // namespace

NodeHost::NodeHost(const ScenarioConfig& config, NodeId self)
    : config_(deployable(config)),
      self_(self),
      injector_(udp_, sim_, config.seed),
      mailer_(injector_),
      directory_(config.nodes) {
  require(self_.value() < config_.nodes, "self id outside the population");
  injector_.set_plan(config_.faults);
  mailer_.set_datagram_audit_pricing(
      config_.lifting_enabled &&
      config_.lifting.audit_channel == LiftingParams::AuditChannel::kReliableUdp);

  const bool bound =
      udp_.add_endpoint(self_, [this](NodeId from, gossip::Message msg) {
        stack_.route(from, msg);
      });
  require(bound, "failed to bind a loopback UDP endpoint");

  // Roles are derived, not communicated: every process draws the same
  // freerider set from the same role stream.
  const auto freeriders = Experiment::derive_freerider_ids(
      config_.seed, config_.nodes, config_.freerider_fraction);
  freerider_ = std::binary_search(freeriders.begin(), freeriders.end(), self_);
  const auto behavior =
      freerider_ ? config_.freerider_behavior : gossip::BehaviorSpec::honest();

  // The manager assignment is a pure function of (n, M, seed), like the
  // roles: every process builds the table the simulator shares.
  stack_ = NodeStack(sim_, mailer_, directory_, config_,
                     std::make_shared<lifting::ManagerAssignment>(
                         config_.nodes, config_.lifting.managers, config_.seed),
                     lifting::Agent::Hooks{}, self_, /*epoch=*/1, behavior);
}

std::uint16_t NodeHost::port() const { return udp_.port_of(self_); }

void NodeHost::enable_trace(std::size_t capacity) {
  require(recorder_ == nullptr, "flight recorder already armed");
  recorder_ = std::make_unique<obs::Recorder>(sim_, capacity);
  injector_.set_trace(recorder_.get());
  stack_.set_trace(recorder_.get());
}

void NodeHost::set_stat_hook(Duration interval, std::function<void()> hook) {
  require(interval > Duration::zero(), "stat interval must be positive");
  stat_interval_ = interval;
  stat_hook_ = std::move(hook);
}

void NodeHost::stat_tick(TimePoint end) {
  stat_hook_();
  if (sim_.now() + stat_interval_ <= end) {
    sim_.schedule_after(stat_interval_, [this, end] { stat_tick(end); });
  }
}

void NodeHost::collect_metrics(obs::Registry& out) const {
  const auto* agent = stack_.agent();
  fold_node_counters({.sent = mailer_.tally(),
                      .engine = engine_stats(),
                      .chunks_emitted = chunks_emitted(),
                      .faults = injector_.stats(),
                      .audit_channel = agent != nullptr
                                           ? agent->audit_channel_totals()
                                           : lifting::Agent::AuditChannelStats{},
                      .trace = trace_ring()},
                     out);
  out.set_counter("udp.messages_sent", udp_.messages_sent());
  out.set_counter("udp.decode_failures", udp_.decode_failures());
  out.set_counter("udp.socket_errors", udp_.socket_errors());
  out.set_counter("udp.send_failures", udp_.send_failures());
}

void NodeHost::set_roster(const std::vector<std::uint16_t>& ports) {
  require(ports.size() == config_.nodes, "roster size != population");
  for (std::uint32_t i = 0; i < config_.nodes; ++i) {
    const NodeId id{i};
    if (id == self_) continue;
    require(ports[i] != 0, "roster carries a zero port");
    require(udp_.add_route(id, ports[i]), "duplicate roster entry");
  }
  roster_set_ = true;
}

void NodeHost::run() {
  require(roster_set_, "set_roster before run()");
  using Clock = std::chrono::steady_clock;

  // Desynchronized start like the simulator's population (the per-node
  // stream constant is the joiner-offset base, unused in the static wire
  // deployment, so it collides with nothing).
  auto offset_rng =
      derive_rng(config_.seed, 0x9000000000ULL + self_.value());
  const auto offset = Duration{static_cast<Duration::rep>(
      offset_rng.uniform() *
      static_cast<double>(config_.gossip.period.count()))};
  stack_.start(offset);
  if (is_source()) stack_.source()->start();

  const TimePoint end = kSimEpoch + config_.duration;
  if (stat_hook_) {
    sim_.schedule_after(stat_interval_, [this, end] { stat_tick(end); });
  }
  const TimePoint drain_end = end + kDrainWindow;
  const auto wall0 = Clock::now();
  const auto wall_now = [&] {
    return kSimEpoch +
           std::chrono::duration_cast<Duration>(Clock::now() - wall0);
  };

  // The drive loop: advance the virtual clock to the wall clock (firing
  // every due protocol timer at its scheduled virtual timestamp), drain
  // the socket, then sleep until the next timer or datagram.
  bool wound_down = false;
  for (;;) {
    const TimePoint now = std::min(wall_now(), drain_end);
    sim_.run_until(wound_down ? now : std::min(now, end));
    udp_.poll();
    if (!wound_down && now >= end) {
      // Wind down in Experiment::wind_down order; the stopped stacks keep
      // answering incoming traffic while the drain window runs.
      wound_down = true;
      stack_.stop();
    }
    if (now >= drain_end) break;
    Duration nap = kMaxNap;
    if (sim_.has_pending()) {
      const TimePoint next = sim_.next_event_time();
      nap = next > now ? std::min(nap, next - now) : Duration::zero();
    }
    udp_.poll_wait(static_cast<int>(nap.count() / 1000));
  }
}

}  // namespace lifting::runtime
