#ifndef LIFTING_ADVERSARY_MEMBERSHIP_HPP
#define LIFTING_ADVERSARY_MEMBERSHIP_HPP

#include <cstdint>
#include <vector>

/// Membership-layer attack strategies (DESIGN.md §12): compromising
/// LiFTinG from *below* the accountability layer. The §4/§5 catalog
/// (strategy.hpp) games the verification protocol itself; these strategies
/// instead corrupt the random peer sampling substrate that §2 assumes is
/// honest ("uniform selection is usually achieved using ... a random peer
/// sampling protocol") — the Byzantine-peer-sampling baseline threat of
/// the related work (RAPTEE's view poisoning, LIFT's hub capture).
///
/// A strategy here is pure data consumed by membership::RpsNetwork; like
/// AdversaryConfig, the kNone default arms nothing, draws nothing and
/// schedules nothing — runs without a membership strategy are bit-identical
/// to runs predating the subsystem (fixed-seed goldens pin this).

namespace lifting::adversary {

enum class MembershipStrategy : std::uint8_t {
  kNone,
  /// Colluders answer every shuffle exchange with forged colluder-heavy
  /// offers (age 0, so age-ranked truncation keeps them) instead of honest
  /// view subsets. Victim views fill with colluders; freeriders' partner
  /// slots land on coalition members who never blame them.
  kViewPoison,
  /// View poisoning plus directed unsolicited pushes: every colluder fires
  /// `extra_pushes` forged offers per round at random honest targets,
  /// biasing in-degree until colluders dominate victims' partner sets and
  /// honest cross-check observations starve.
  kHubCapture,
  /// View poisoning plus pushes concentrated on a fixed victim subset
  /// (`eclipse_fraction` of the honest population): the victims' views
  /// become almost entirely colluders — eclipse-assisted freeriding that
  /// composes with the §4 catalog (the eclipsed victims' observations are
  /// the ones the coalition's freeriding would otherwise trip).
  kEclipse,
};

[[nodiscard]] const char* membership_strategy_name(
    MembershipStrategy strategy) noexcept;

/// Knobs of the membership-layer attacks. Consumed by
/// membership::RpsNetwork::set_adversary; the colluder set itself comes
/// from the deployment (the freerider list, like CollusionSpec's coalition).
struct MembershipAttackConfig {
  MembershipStrategy strategy = MembershipStrategy::kNone;
  /// Fraction of a forged offer filled with colluder entries (the rest is
  /// padded with real view entries, so a poisoned offer is not trivially
  /// distinguishable by composition alone).
  double poison_fill = 0.75;
  /// kHubCapture / kEclipse: directed forged pushes per colluder per round.
  std::uint32_t extra_pushes = 3;
  /// kEclipse: fraction of the honest population chosen (deterministically,
  /// at arm time) as eclipse victims.
  double eclipse_fraction = 0.2;
  friend bool operator==(const MembershipAttackConfig&,
                         const MembershipAttackConfig&) = default;

  [[nodiscard]] bool enabled() const noexcept {
    return strategy != MembershipStrategy::kNone;
  }
  void validate() const;
};

/// One catalog row: a named, paper-anchored membership attack preset.
struct MembershipCatalogEntry {
  const char* name;
  const char* paper_ref;
  MembershipAttackConfig config;
};

/// The membership-attack catalog in fixed order (view-poison, hub-capture,
/// eclipse) — benches sweep it, the scenario sweep draws from it, and
/// tests pin the order.
[[nodiscard]] const std::vector<MembershipCatalogEntry>& membership_catalog();

}  // namespace lifting::adversary

#endif  // LIFTING_ADVERSARY_MEMBERSHIP_HPP
