#include "runtime/node_stack.hpp"

#include "common/rng.hpp"
#include "obs/registry.hpp"

namespace lifting::runtime {

std::uint64_t incarnation_stream(std::uint64_t purpose, std::uint32_t node,
                                 std::uint32_t epoch) {
  return splitmix64((purpose << 56U) |
                    (static_cast<std::uint64_t>(node) << 24U) | epoch);
}

NodeStack::NodeStack(sim::Simulator& sim, gossip::Mailer& mailer,
                     membership::Directory& directory,
                     const ScenarioConfig& config,
                     std::shared_ptr<lifting::ManagerAssignment> assignment,
                     const lifting::Agent::Hooks& hooks, NodeId id,
                     std::uint32_t epoch,
                     const gossip::BehaviorSpec& behavior) {
  // Per-node rng streams live in disjoint 2^32-wide bases so no two
  // (purpose, node) pairs can ever collide — the old 0x1000+i / 0x2000+i
  // scheme gave node 4096+k's agent the exact stream of node k's engine,
  // silently correlating audit sampling with partner selection at the
  // populations the scale benches measure. A rejoining incarnation
  // (epoch > 1) must not replay its predecessor's randomness, so later
  // epochs mix (base, node, epoch) through incarnation_stream instead.
  const std::uint32_t i = id.value();
  const auto stream = [&](std::uint64_t legacy_base, std::uint64_t purpose) {
    return derive_rng(config.seed, epoch == 1
                                       ? legacy_base + i
                                       : incarnation_stream(purpose, i, epoch));
  };
  if (config.lifting_enabled) {
    agent_ = std::make_unique<lifting::Agent>(
        sim, mailer, directory, id, config.lifting, behavior,
        stream(0xA00000000ULL, 0xA5), config.seed, sim.now(), hooks,
        std::move(assignment));
  }
  auto params = config.gossip;
  params.emit_acks = config.lifting_enabled;
  engine_ = std::make_unique<gossip::Engine>(
      sim, mailer, directory, id, params, behavior,
      stream(0xB00000000ULL, 0xB5), agent_.get());
  engine_->reserve_stream_chunks(config.stream.expected_chunks());
  if (id == NodeId{0}) {
    source_ = std::make_unique<gossip::StreamSource>(sim, *engine_,
                                                     config.stream);
  }
}

void NodeStack::set_trace(obs::Recorder* trace) {
  engine_->set_trace(trace);
  if (agent_) agent_->set_trace(trace);
}

void NodeStack::start(Duration offset) {
  engine_->start(offset);
  if (agent_) agent_->start(offset);
}

void NodeStack::stop() {
  if (source_) source_->stop();
  engine_->stop();
  if (agent_) agent_->stop();
}

void fold_node_counters(const NodeCounters& c, obs::Registry& out) {
  for (const auto& [name, value] : c.sent.snapshot()) {
    out.set_counter(name, value);
  }
  out.set_counter("engine.chunks_received", c.engine.chunks_received);
  out.set_counter("engine.duplicate_serves", c.engine.duplicate_serves);
  out.set_counter("engine.proposals_sent", c.engine.proposals_sent);
  out.set_counter("engine.requests_sent", c.engine.requests_sent);
  out.set_counter("engine.chunks_served", c.engine.chunks_served);
  out.set_counter("engine.invalid_requests", c.engine.invalid_requests);
  out.set_counter("engine.duplicate_requests", c.engine.duplicate_requests);
  out.set_counter("stream.chunks_emitted", c.chunks_emitted);
  out.set_counter("faults.dropped_burst", c.faults.dropped_burst);
  out.set_counter("faults.dropped_partition", c.faults.dropped_partition);
  out.set_counter("faults.duplicated", c.faults.duplicated);
  out.set_counter("faults.delayed", c.faults.delayed);
  out.set_counter("faults.reordered", c.faults.reordered);
  out.set_counter("audit_channel.sends", c.audit_channel.sends);
  out.set_counter("audit_channel.retries", c.audit_channel.retries);
  out.set_counter("audit_channel.give_ups", c.audit_channel.give_ups);
  out.set_counter("audit_channel.acks_received",
                  c.audit_channel.acks_received);
  out.set_counter("audit_channel.dups_suppressed",
                  c.audit_channel.dups_suppressed);
  if (c.trace != nullptr) {
    out.set_counter("trace.recorded", c.trace->total_recorded());
    out.set_counter("trace.dropped", c.trace->dropped());
  }
}

}  // namespace lifting::runtime
