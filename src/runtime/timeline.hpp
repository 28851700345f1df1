#ifndef LIFTING_RUNTIME_TIMELINE_HPP
#define LIFTING_RUNTIME_TIMELINE_HPP

#include <cstdint>
#include <vector>

#include "common/time.hpp"
#include "common/types.hpp"
#include "faults/plan.hpp"
#include "gossip/behavior.hpp"
#include "sim/network.hpp"

/// Scenario timeline: scheduled deployment events that turn a static
/// ScenarioConfig into a dynamic one — nodes joining mid-stream, leaving
/// gracefully, crashing, switching behavior (honest → freerider), or having
/// their link reprofiled. The timeline is declarative data; the Experiment
/// executes it through ordinary simulator events, so event application
/// interleaves deterministically with protocol traffic and `run_until`
/// checkpointing is oblivious to event boundaries.
///
/// Ordering contract: events are applied in (time, insertion-order) — two
/// events with equal timestamps apply in the order they were added
/// (validated by tests/test_runtime_timeline.cpp).

namespace lifting::runtime {

/// Sentinel for kJoin events: "allocate the next fresh id". Joiner ids are
/// never recycled from departed nodes, so dense NodeId-indexed tables
/// (ledger, engines, score stores) can never alias two incarnations.
inline constexpr NodeId kAutoNodeId{0xFFFFFFFFU};

enum class ScenarioEventKind : std::uint8_t {
  kJoin,         ///< a new node enters the deployment
  kLeave,        ///< graceful departure (membership updated immediately)
  kCrash,        ///< abrupt death (membership notices after failure_detection)
  kRejoin,       ///< a previously-departed id re-enters (epoch bumps)
  kSetBehavior,  ///< node switches behavior mid-run
  kSetLink,      ///< node's link profile changes mid-run
  kSetFaults,    ///< swap the transport fault plan (whole deployment)
};

struct ScenarioEvent {
  Duration at = Duration::zero();  ///< relative to experiment start
  ScenarioEventKind kind = ScenarioEventKind::kLeave;
  /// kJoin: the joiner's id (kAutoNodeId = allocate); others: the target.
  NodeId node = kAutoNodeId;
  /// kJoin: initial behavior; kSetBehavior: the new behavior. A collusion
  /// spec with an empty coalition is filled with the current freerider set
  /// when the event applies.
  gossip::BehaviorSpec behavior{};
  /// Role accounting for kJoin/kSetBehavior: is the node a freerider from
  /// now on (drives detection/false-positive statistics)?
  bool freerider = false;
  /// kJoin (when has_link) / kSetLink: the link profile.
  sim::LinkProfile link{};
  bool has_link = false;  ///< kJoin: false = use the scenario default link
  /// kSetFaults: the new transport fault plan (replaces the current one;
  /// an empty plan heals everything). Applies to the whole deployment, so
  /// `node` is ignored for this kind.
  friend bool operator==(const ScenarioEvent&,
                         const ScenarioEvent&) = default;
  faults::FaultPlan faults{};
};

class ScenarioTimeline {
 public:
  ScenarioTimeline& add(ScenarioEvent event) {
    events_.push_back(std::move(event));
    return *this;
  }

  // ---- convenience builders (all return *this for chaining)
  ScenarioTimeline& join_at(Duration at,
                            gossip::BehaviorSpec behavior = {},
                            bool freerider = false,
                            NodeId node = kAutoNodeId) {
    ScenarioEvent e;
    e.at = at;
    e.kind = ScenarioEventKind::kJoin;
    e.node = node;
    e.behavior = std::move(behavior);
    e.freerider = freerider;
    return add(std::move(e));
  }
  ScenarioTimeline& leave_at(Duration at, NodeId node) {
    ScenarioEvent e;
    e.at = at;
    e.kind = ScenarioEventKind::kLeave;
    e.node = node;
    return add(std::move(e));
  }
  ScenarioTimeline& crash_at(Duration at, NodeId node) {
    ScenarioEvent e;
    e.at = at;
    e.kind = ScenarioEventKind::kCrash;
    e.node = node;
    return add(std::move(e));
  }
  /// Re-enters a departed id (DESIGN.md §7). The Experiment restores the
  /// node's *scenario-level* role — freerider flag (with the scenario's
  /// freerider behavior) and weak-link class; a custom BehaviorSpec or link
  /// installed mid-run via set_behavior/set_link is NOT carried across the
  /// departure (re-apply it after the rejoin if needed) — and bumps its
  /// alive epoch. The event is skipped if the node is not actually departed
  /// when it applies (e.g. it was expelled first — an indictment is not
  /// outlived by leaving).
  ScenarioTimeline& rejoin_at(Duration at, NodeId node) {
    ScenarioEvent e;
    e.at = at;
    e.kind = ScenarioEventKind::kRejoin;
    e.node = node;
    return add(std::move(e));
  }
  ScenarioTimeline& set_behavior_at(Duration at, NodeId node,
                                    gossip::BehaviorSpec behavior,
                                    bool freerider) {
    ScenarioEvent e;
    e.at = at;
    e.kind = ScenarioEventKind::kSetBehavior;
    e.node = node;
    e.behavior = std::move(behavior);
    e.freerider = freerider;
    return add(std::move(e));
  }
  ScenarioTimeline& set_link_at(Duration at, NodeId node,
                                sim::LinkProfile link) {
    ScenarioEvent e;
    e.at = at;
    e.kind = ScenarioEventKind::kSetLink;
    e.node = node;
    e.link = link;
    e.has_link = true;
    return add(std::move(e));
  }
  /// Replaces the deployment-wide transport fault plan at `at` (src/faults/,
  /// DESIGN.md §11). Pass an empty plan to heal: partitions lift, loss and
  /// reordering stop. Injector chain state and rng streams persist across
  /// swaps, so toggling a plan off and on does not replay fault decisions.
  ScenarioTimeline& set_faults_at(Duration at, faults::FaultPlan plan) {
    ScenarioEvent e;
    e.at = at;
    e.kind = ScenarioEventKind::kSetFaults;
    e.faults = std::move(plan);
    return add(std::move(e));
  }

  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  /// Events in insertion order (as added).
  [[nodiscard]] const std::vector<ScenarioEvent>& events() const noexcept {
    return events_;
  }
  /// Events sorted by time, ties kept in insertion order (stable).
  [[nodiscard]] std::vector<ScenarioEvent> ordered() const;
  friend bool operator==(const ScenarioTimeline&,
                         const ScenarioTimeline&) = default;

  /// Poisson churn preset: memoryless arrivals and departures, the default
  /// churn model of peer-sampling and streaming-system evaluations.
  struct PoissonChurn {
    /// Expected joins per minute as a fraction of the base population
    /// (0.05 = "5%/min" in the bench_churn sense).
    double arrival_fraction_per_min = 0.0;
    /// Expected departures per minute as a fraction of the *current* live
    /// population (mean lifetime = 60/departure_fraction_per_min seconds).
    double departure_fraction_per_min = 0.0;
    /// Fraction of departures that are crashes (abrupt) rather than clean
    /// leaves. Crashed nodes linger in the membership until the failure
    /// detector fires, accruing wrongful blame.
    double crash_fraction = 0.5;
    /// Fraction of joiners that freeride, with this behavior.
    double freerider_fraction = 0.0;
    gossip::BehaviorSpec freerider_behavior{};
    /// Fraction of departures that later rejoin (DESIGN.md §7). Zero keeps
    /// the generated timeline — and its rng draw sequence — byte-identical
    /// to the pre-rejoin preset.
    double rejoin_fraction = 0.0;
    /// Mean of the exponential offline time before a rejoin. Rejoins that
    /// would land past `end` are dropped (the node stays gone).
    Duration rejoin_delay_mean = seconds(10.0);
    Duration start = seconds(5.0);
    Duration end = seconds(55.0);
  };

  /// Generates a churn timeline over a deployment of `base_nodes` initial
  /// nodes (ids [0, base_nodes); joiners get fresh ids from base_nodes up).
  /// Pure function of (churn, base_nodes, seed); the source (node 0) never
  /// departs.
  [[nodiscard]] static ScenarioTimeline poisson_churn(
      const PoissonChurn& churn, std::uint32_t base_nodes, std::uint64_t seed);

 private:
  std::vector<ScenarioEvent> events_;
};

}  // namespace lifting::runtime

#endif  // LIFTING_RUNTIME_TIMELINE_HPP
