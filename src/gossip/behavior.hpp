#ifndef LIFTING_GOSSIP_BEHAVIOR_HPP
#define LIFTING_GOSSIP_BEHAVIOR_HPP

#include <algorithm>
#include <optional>
#include <unordered_set>
#include <vector>

#include "common/types.hpp"

/// Behavior specification — every §4 attack as data.
///
/// The degree of freeriding is the paper's Δ = (δ1, δ2, δ3) (§6.3.1). We use
/// the *deviation* convention throughout (see DESIGN.md): a freerider
/// contacts (1-δ1)·f partners, proposes the chunks received from a fraction
/// (1-δ2) of its servers, and serves (1-δ3)·|R| chunks per request. The
/// bandwidth gain is 1-(1-δ1)(1-δ2)(1-δ3), matching the paper's Fig. 12 and
/// the PlanetLab setup (f̂ = 6 of f = 7 ⇔ δ1 = 1/7).

namespace lifting::gossip {

/// Collusion parameters (attacks marked ⋆ in the paper).
struct CollusionSpec {
  /// The coalition, including this node.
  std::vector<NodeId> coalition;
  /// Probability of picking a coalition member per partner slot
  /// (§6.3.2's p_m). 0 keeps selection uniform.
  double bias_pm = 0.0;
  /// Man-in-the-middle (Fig. 8b): acks to real servers list coalition
  /// members; serves carry a coalition member as ack-to so downstream
  /// verification is rerouted to the coalition.
  bool mitm = false;
  /// Coalition members answer "yes" to confirm requests about each other
  /// and acknowledge each other's history entries during audits.
  bool cover_up = true;
  friend bool operator==(const CollusionSpec&,
                         const CollusionSpec&) = default;

  [[nodiscard]] bool contains(NodeId id) const {
    return std::find(coalition.begin(), coalition.end(), id) !=
           coalition.end();
  }
};

struct BehaviorSpec {
  /// δ1 — fanout decrease: contact only round((1-δ1)·f) partners.
  double delta_fanout = 0.0;
  /// δ2 — partial propose: drop the chunks received from a fraction δ2 of
  /// the servers of the last period (the footnote-optimal strategy: removing
  /// whole servers minimizes the number of blaming verifiers).
  double delta_propose = 0.0;
  /// δ3 — partial serve: serve only round((1-δ3)·|R|) of each request.
  double delta_serve = 0.0;
  /// Gossip-period increase (§4.1 attack (iv)): the node gossips every
  /// (1 + period_stretch)·Tg instead of every Tg.
  double period_stretch = 0.0;
  /// When audited, replace coalition partners in the reported history with
  /// random honest nodes (defeats the entropy check but fails the
  /// a-posteriori cross-check — §5.3).
  bool lie_in_history = false;
  /// Freeriders lie in their acks: they always claim the served chunks were
  /// proposed (dropping them openly would be self-incriminating); witnesses
  /// then contradict. Honest nodes have nothing to lie about.
  std::optional<CollusionSpec> collusion;
  friend bool operator==(const BehaviorSpec&, const BehaviorSpec&) = default;

  [[nodiscard]] bool is_honest() const {
    return delta_fanout == 0.0 && delta_propose == 0.0 && delta_serve == 0.0 &&
           period_stretch == 0.0 && !lie_in_history && !collusion.has_value();
  }

  [[nodiscard]] bool colludes_with(NodeId id) const {
    return collusion.has_value() && collusion->contains(id);
  }

  /// The paper's upload-bandwidth gain 1-(1-δ1)(1-δ2)(1-δ3).
  [[nodiscard]] double gain() const {
    return 1.0 -
           (1.0 - delta_fanout) * (1.0 - delta_propose) * (1.0 - delta_serve);
  }

  /// Uniform freerider of degree δ on all three axes (Fig. 12's x-axis).
  [[nodiscard]] static BehaviorSpec freerider(double delta) {
    BehaviorSpec spec;
    spec.delta_fanout = delta;
    spec.delta_propose = delta;
    spec.delta_serve = delta;
    return spec;
  }

  [[nodiscard]] static BehaviorSpec honest() { return {}; }
};

}  // namespace lifting::gossip

#endif  // LIFTING_GOSSIP_BEHAVIOR_HPP
