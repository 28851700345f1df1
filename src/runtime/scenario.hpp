#ifndef LIFTING_RUNTIME_SCENARIO_HPP
#define LIFTING_RUNTIME_SCENARIO_HPP

#include <cstdint>

#include "adversary/membership.hpp"
#include "adversary/strategy.hpp"
#include "common/time.hpp"
#include "faults/plan.hpp"
#include "gossip/behavior.hpp"
#include "gossip/engine.hpp"
#include "gossip/stream_source.hpp"
#include "lifting/params.hpp"
#include "membership/sampler_policy.hpp"
#include "runtime/timeline.hpp"
#include "sim/network.hpp"

/// Experiment configuration: one struct describes a full deployment —
/// population, stream, network conditions, freerider population and
/// LiFTinG parameters. Presets mirror the paper's setups.

namespace lifting::runtime {

struct ScenarioConfig {
  // ---- population
  std::uint32_t nodes = 300;
  std::uint64_t seed = 42;

  // ---- protocol + stream
  gossip::GossipParams gossip;
  gossip::StreamSource::Params stream;
  Duration duration = seconds(60.0);

  // ---- LiFTinG
  bool lifting_enabled = true;
  LiftingParams lifting;
  /// When true, committed expulsions are propagated into the membership
  /// after `expulsion_propagation` (honest nodes then shun the victim).
  bool expulsion_enabled = false;
  Duration expulsion_propagation = seconds(1.0);

  // ---- freeriders
  /// Fraction of the population that freerides (the source never does).
  double freerider_fraction = 0.0;
  /// Behavior of every freerider. When `collusion` is set, the coalition
  /// is filled with the actual freerider ids by the experiment.
  gossip::BehaviorSpec freerider_behavior;

  // ---- adaptive adversaries (src/adversary/, DESIGN.md §8)
  /// Reactive attack policy run by every freerider on top of (and mutating)
  /// `freerider_behavior` — oscillating duty cycles, score-aware
  /// throttling, whitewashing departures, coalition view pooling. The
  /// default (Strategy::kNone) builds no controllers, draws no rng streams
  /// and schedules no events: a run without a strategy is bit-identical to
  /// one predating the subsystem.
  adversary::AdversaryConfig adversary;

  // ---- network conditions
  sim::LinkProfile link;       ///< profile of well-connected nodes
  double weak_fraction = 0.0;  ///< fraction of weak (lossy/slow) honest nodes
  sim::LinkProfile weak_link;  ///< their profile (§7.3's poor connections)
  /// Deterministic transport-seam fault injection (src/faults/,
  /// DESIGN.md §11): bursty loss, delay spikes, duplication/reordering,
  /// partition windows. Empty (the default) is fully inert — no rng, no
  /// events — so goldens are untouched. The same plan drives both the
  /// simulator and the wire deployment; timeline kSetFaults events can
  /// swap it mid-run.
  faults::FaultPlan faults;

  // ---- membership substrate (RPS, DESIGN.md §12)
  /// Random-peer-sampling configuration. Off by default (and fully inert:
  /// no RpsNetwork is constructed, no rng stream is drawn, nothing is
  /// scheduled — a run with the default block is bit-identical to one
  /// predating the subsystem). With rps_partner_sampling on, every gossip
  /// engine draws its partners from its node's RPS partial view instead of
  /// the full directory, which is where the membership-layer attacks and
  /// the hardened sampler variant become observable end to end.
  struct MembershipConfig {
    /// Master switch: run an RpsNetwork alongside the deployment and use
    /// its per-node views as the partner-selection source.
    bool rps_partner_sampling = false;
    /// Wall-clock period of one synchronous shuffle round.
    Duration rps_round_period = milliseconds(500);
    std::uint32_t view_size = 12;
    std::uint32_t shuffle_length = 6;
    /// Shuffle rounds run before the deployment starts (view warm-up).
    std::uint32_t bootstrap_rounds = 12;
    /// Legacy (bit-identical) or hardened sampler (membership/).
    membership::SamplerPolicy sampler;
    /// Membership-level attack over the freerider coalition
    /// (adversary/membership.hpp). Requires rps_partner_sampling.
    adversary::MembershipAttackConfig attack;
    friend bool operator==(const MembershipConfig&,
                           const MembershipConfig&) = default;
  };
  MembershipConfig membership;

  // ---- dynamic membership
  /// Scheduled deployment events (joins, leaves, crashes, rejoins,
  /// behavior/link switches). Empty = the classic static deployment.
  ScenarioTimeline timeline;
  /// How long a crashed node lingers in the membership before the failure
  /// detector removes it. During this window partners keep selecting the
  /// dead node and its verifiers blame the silence — the wrongful-blame
  /// regime bench_churn measures. Clean leaves propagate immediately.
  Duration failure_detection = seconds(2.0);

  // ---- churn-resilient accountability (DESIGN.md §7)
  /// When a manager departs, promote a deterministic replacement from the
  /// base pool and migrate its ledger row (manager handoff). Off = the
  /// quorum silently shrinks (the pre-handoff baseline) AND a departed
  /// manager that rejoins comes back with empty stores — without a
  /// migration protocol, blame knowledge is not conserved across a
  /// bounce.
  bool manager_handoff = true;
  /// Delay between a departure becoming known to the membership and the
  /// handoff executing (models the reassignment round). For crashes the
  /// failure-detection lag is added first.
  Duration manager_handoff_delay = seconds(1.0);
  /// Extend manager handoff to *expelled* managers: once an expulsion has
  /// been applied to the membership, the victim's manager rows promote the
  /// same deterministic replacements a departure would (and migrate their
  /// ledger state), after the same manager_handoff_delay. Off = the
  /// pre-fix baseline where an expelled manager leaves a permanent quorum
  /// hole. Requires manager_handoff; inert while nothing is expelled.
  bool expulsion_handoff = true;
  /// Maximum per-observer membership-view propagation lag: joins/leaves
  /// become visible to each node after a deterministic pseudo-random delay
  /// in [0, view_propagation] (divergent views — verifiers and auditors
  /// can disagree about liveness). Zero = the legacy shared view,
  /// bit-identical to pre-view behavior.
  Duration view_propagation = Duration::zero();
  /// Score history of a rejoining id: kFresh restarts the blame record and
  /// period count at the rejoin instant; kCarried keeps the previous
  /// incarnation's record (a returning node answers for its past).
  enum class RejoinScores : std::uint8_t { kFresh, kCarried };
  RejoinScores rejoin_scores = RejoinScores::kFresh;
  /// With manager_handoff OFF, conserve blame across a bounce anyway by
  /// carrying the departed incarnation's manager-ledger rows into the
  /// rejoining one (no migration protocol, no promotions — just the
  /// returning manager keeping its own store). Closes the ROADMAP item
  /// that made bench_adversary_frontier's handoff A/B compare "handoff"
  /// against "handoff + store amnesia" instead of handoff alone. Inert
  /// while manager_handoff is on (the handoff path already migrates).
  bool carried_manager_store = false;
  friend bool operator==(const ScenarioConfig&,
                         const ScenarioConfig&) = default;

  void validate() const;

  /// The paper's PlanetLab deployment (§7.1): 300 nodes, 674 kbps stream,
  /// f = 7, Tg = 500 ms, M = 25 managers, ~4% loss, 10% freeriders with
  /// Δ = (1/7, 0.1, 0.1).
  [[nodiscard]] static ScenarioConfig planetlab();

  /// A small fast configuration for tests and the quickstart example.
  [[nodiscard]] static ScenarioConfig small(std::uint32_t nodes = 60);
};

}  // namespace lifting::runtime

#endif  // LIFTING_RUNTIME_SCENARIO_HPP
