#ifndef LIFTING_RUNTIME_NODE_STACK_HPP
#define LIFTING_RUNTIME_NODE_STACK_HPP

#include <cstdint>
#include <memory>

#include "faults/injector.hpp"
#include "gossip/engine.hpp"
#include "gossip/mailer.hpp"
#include "gossip/stream_source.hpp"
#include "lifting/agent.hpp"
#include "membership/directory.hpp"
#include "obs/trace.hpp"
#include "runtime/scenario.hpp"
#include "sim/simulator.hpp"

/// One node's protocol stack — the LiFTinG agent (when enabled), the gossip
/// engine wired to it, and the stream source on node 0 — assembled the
/// same way for both backends: Experiment builds one per simulated node
/// incarnation, NodeHost one for its wire daemon. The parts live in stable
/// heap slots, so moving a NodeStack (into Experiment's graveyard of
/// retired incarnations, say) never moves an Engine or Agent that pending
/// timers still reference.

namespace lifting::obs {
class Registry;
}  // namespace lifting::obs

namespace lifting::runtime {

/// Rng-stream key for incarnations past the first: purpose tag, node id
/// and epoch occupy fully disjoint bit fields (56..63 / 24..55 / 0..23),
/// so no two (purpose, node, epoch) triples can alias — the layout is
/// load-bearing for the no-replayed-randomness guarantee. Epoch-1 streams
/// keep the legacy `base + i` constants (fixed-seed goldens).
[[nodiscard]] std::uint64_t incarnation_stream(std::uint64_t purpose,
                                               std::uint32_t node,
                                               std::uint32_t epoch);

class NodeStack {
 public:
  /// An empty slot: no node built.
  NodeStack() = default;

  /// Builds node `id`'s stack for its `epoch`-th incarnation (the static
  /// wire deployment passes 1). The agent's genesis is the current
  /// simulation time, so a joiner's score normalizes over the periods it
  /// has actually spent in the system.
  NodeStack(sim::Simulator& sim, gossip::Mailer& mailer,
            membership::Directory& directory, const ScenarioConfig& config,
            std::shared_ptr<lifting::ManagerAssignment> assignment,
            const lifting::Agent::Hooks& hooks, NodeId id, std::uint32_t epoch,
            const gossip::BehaviorSpec& behavior);

  [[nodiscard]] gossip::Engine& engine() const noexcept { return *engine_; }
  /// Null when LiFTinG is disabled.
  [[nodiscard]] lifting::Agent* agent() const noexcept { return agent_.get(); }
  /// Null except on the source node.
  [[nodiscard]] gossip::StreamSource* source() const noexcept {
    return source_.get();
  }

  /// Delivers an incoming message. The leading Message alternatives are
  /// the gossip kinds (propose/request/serve/ack — order pinned by
  /// static_asserts next to the variant); everything else is LiFTinG
  /// traffic.
  void route(NodeId from, const gossip::Message& msg) {
    if (msg.index() < gossip::kGossipKindCount) {
      engine_->handle(from, msg);
    } else if (agent_) {
      agent_->handle(from, msg);
    }
  }

  void set_trace(obs::Recorder* trace);
  /// Starts the engine's and agent's periodic loops after `offset`. The
  /// caller starts the stream source, once every node is running.
  void start(Duration offset);
  /// Stops every periodic loop (stream, engine, agent); the stack keeps
  /// answering incoming traffic.
  void stop();

 private:
  std::unique_ptr<lifting::Agent> agent_;
  std::unique_ptr<gossip::Engine> engine_;
  std::unique_ptr<gossip::StreamSource> source_;
};

/// The node-level counters both backends report under one vocabulary
/// (DESIGN.md §13): a wire daemon's own node, or the sum over every
/// simulated incarnation.
struct NodeCounters {
  const gossip::SendTally& sent;
  gossip::EngineStats engine;
  std::uint64_t chunks_emitted = 0;
  faults::FaultInjector::Stats faults;
  lifting::Agent::AuditChannelStats audit_channel;
  const obs::TraceRing* trace = nullptr;  ///< null: recorder disarmed
};

/// Writes `counters` into `out` as absolute totals (an idempotent re-fold):
/// sent.<kind>.count/.bytes for every kind, engine.*, stream.*, faults.*,
/// audit_channel.* and, when armed, trace.*.
void fold_node_counters(const NodeCounters& counters, obs::Registry& out);

}  // namespace lifting::runtime

#endif  // LIFTING_RUNTIME_NODE_STACK_HPP
