#ifndef LIFTING_MEMBERSHIP_SAMPLER_POLICY_HPP
#define LIFTING_MEMBERSHIP_SAMPLER_POLICY_HPP

#include <cstdint>

#include "common/assert.hpp"

/// Sampler hardening policy for the RPS (DESIGN.md §12). The legacy
/// variant is the bit-identical default: with it, RpsNetwork's rng draws
/// and view evolution are byte-for-byte what they were before the policy
/// existed (fixed-seed goldens are NOT re-pinned). The hardened variant
/// models the defenses of Byzantine-resilient peer sampling:
///
///  - bounded push acceptance (`max_push_accept`): per exchange, at most
///    this many *new* ids beyond replacement of the entries the exchange
///    handed away are admitted. Solicited shuffles refill freely; an
///    unsolicited push (nothing handed away) plants at most this many ids,
///    capping how fast a directed push flood can displace honest entries;
///  - responder rate limiting (`max_responses_per_round`): a node takes
///    part in at most this many exchanges per round as the contacted side,
///    so directed-push floods (hub capture) mostly bounce;
///  - age-based eviction (`max_entry_age`): entries older than the bound
///    are dropped before every exchange — stale links cannot be farmed;
///  - modeled attested exchange (`attested`, RAPTEE-style): entries whose
///    ground-truth forged marker is set fail attestation and are rejected
///    on merge. The marker models what a TEE-backed sampler proves
///    cryptographically; here it is set only by the membership attacks
///    themselves (adversary/membership.hpp), never by honest code.

namespace lifting::membership {

struct SamplerPolicy {
  enum class Variant : std::uint8_t { kLegacy, kHardened };

  Variant variant = Variant::kLegacy;
  /// Hardened: new ids admitted per incoming exchange beyond replacement
  /// of the entries the exchange handed away (push-flood bound).
  std::uint32_t max_push_accept = 4;
  /// Hardened: exchanges a node accepts per round as the contacted side.
  std::uint32_t max_responses_per_round = 3;
  /// Hardened: entries older than this are evicted before exchanging.
  std::uint32_t max_entry_age = 24;
  /// Hardened: reject entries carrying the forged marker (modeled
  /// RAPTEE-style attestation).
  bool attested = true;
  friend bool operator==(const SamplerPolicy&,
                         const SamplerPolicy&) = default;

  [[nodiscard]] bool hardened() const noexcept {
    return variant == Variant::kHardened;
  }
  /// Attestation is only meaningful under the hardened variant.
  [[nodiscard]] bool attestation_active() const noexcept {
    return hardened() && attested;
  }

  void validate() const {
    if (!hardened()) return;
    require(max_push_accept >= 1, "hardened sampler needs max_push_accept >= 1");
    require(max_responses_per_round >= 1,
            "hardened sampler needs max_responses_per_round >= 1");
    require(max_entry_age >= 2, "hardened sampler needs max_entry_age >= 2");
  }

  /// The hardened preset the benches and the sweep arm (all defenses on).
  [[nodiscard]] static SamplerPolicy hardened_defaults() {
    SamplerPolicy p;
    p.variant = Variant::kHardened;
    return p;
  }
};

}  // namespace lifting::membership

#endif  // LIFTING_MEMBERSHIP_SAMPLER_POLICY_HPP
