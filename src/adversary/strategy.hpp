#ifndef LIFTING_ADVERSARY_STRATEGY_HPP
#define LIFTING_ADVERSARY_STRATEGY_HPP

#include <cstdint>
#include <vector>

#include "common/time.hpp"

/// Adaptive adversary strategies — the attack side of the evaluation made
/// first-class. The paper's §6 freeriders are *static*: one Δ = (δ1, δ2, δ3)
/// for the whole run. Related work (RAPTEE, LIFT) treats adaptive Byzantine
/// behavior as the baseline threat model for gossip systems, and the
/// accountability machinery built for churn (manager handoff, divergent
/// views, rejoin — DESIGN.md §7) is only meaningfully stress-tested by
/// opponents that *react* to it. An AdversaryConfig describes a reactive
/// policy; the AdversaryController (controller.hpp) executes it per
/// adversarial node as ordinary deterministic simulator events.
///
/// The catalog below names the built-in strategies; each entry is a plain
/// AdversaryConfig, so every catalog attack is expressible directly in a
/// ScenarioConfig and drawable by the randomized scenario sweep.

namespace lifting::adversary {

enum class Strategy : std::uint8_t {
  /// No adversary layer at all: no controllers are built, no rng streams
  /// are drawn, no events are scheduled. A run with kNone is bit-identical
  /// to one predating the subsystem (the inertness guarantee the fixed-seed
  /// goldens pin).
  kNone,
  /// Oscillating freerider: freeride for duty_on, behave honestly for
  /// duty_off, repeat. The §4 attacks executed in bursts — blame accrues
  /// only part-time while the score normalization keeps running, so the
  /// time-averaged score sits above a static freerider of the same Δ.
  kOscillate,
  /// Score-aware throttler: probe the own min-vote score through the
  /// managers (the §5.1 read, as protocol messages) and freeride only
  /// while the estimate stays clear of the expulsion threshold η; switch
  /// honest when it approaches, resume when compensation has healed it.
  kScoreAware,
  /// Whitewasher: the ROADMAP's timed-departure adversary. Probe the own
  /// score and *leave* just before an expulsion can commit, then rejoin
  /// after lay_low and restart (fresh scores under the kFresh rejoin
  /// policy). Defeated by committed-expulsions-block-rejoin plus manager
  /// handoff for departed AND expelled managers (quorums stay full enough
  /// to commit in time).
  kWhitewash,
  /// Coalition coordinator: static freeriding plus collusion whose
  /// cover-up set is maintained *dynamically* from the members' divergent
  /// membership views — colluders pool sightings, so the coalition keeps
  /// covering a member some laggard colluder still sees and recruits
  /// freerider joiners as each member learns of them (the ROADMAP's
  /// "wire divergent views into collusion paths" item).
  kCoalition,
};

[[nodiscard]] const char* strategy_name(Strategy strategy) noexcept;

struct AdversaryConfig {
  Strategy strategy = Strategy::kNone;

  /// Cadence of the controller's decision tick (one simulator event per
  /// tick per adversarial node).
  Duration decision_period = milliseconds(500);
  /// Minimum spacing of self score probes (kScoreAware / kWhitewash). Each
  /// probe is a real §5.1 score read — query datagrams to the M managers,
  /// min-vote over the replies — so probing costs the adversary bandwidth.
  Duration probe_interval = seconds(1.0);

  // ---- kOscillate
  Duration duty_on = seconds(3.0);   ///< freeriding burst length
  Duration duty_off = seconds(3.0);  ///< honest recovery length

  // ---- kScoreAware (margins are relative to η, in score units)
  /// Switch honest when the score estimate falls to η + throttle_margin.
  double throttle_margin = 1.5;
  /// Resume freeriding when the estimate has healed to η + resume_margin.
  double resume_margin = 3.0;

  // ---- kWhitewash
  /// Leave when the score estimate falls to η + flee_margin.
  double flee_margin = 1.0;
  /// Offline time before attempting the rejoin.
  Duration lay_low = seconds(3.0);
  /// Bounce budget (a real whitewasher cannot re-enter forever without
  /// burning identities; ids are never recycled here, so the budget also
  /// bounds the run's table growth).
  std::uint32_t max_bounces = 8;

  // ---- kCoalition
  /// How long a pooled sighting of a coalition member stays trustworthy.
  /// Within this window a member keeps covering up for a peer that any
  /// colluder recently reported alive, even if its own view lags.
  Duration intel_stale = seconds(2.0);
  friend bool operator==(const AdversaryConfig&,
                         const AdversaryConfig&) = default;

  [[nodiscard]] bool enabled() const noexcept {
    return strategy != Strategy::kNone;
  }
  /// Does this strategy need the manager score-feedback channel (and thus
  /// LiFTinG agents)?
  [[nodiscard]] bool needs_probes() const noexcept {
    return strategy == Strategy::kScoreAware ||
           strategy == Strategy::kWhitewash;
  }

  void validate() const;
};

/// One named catalog attack: a ready-to-run AdversaryConfig plus the paper
/// cross-reference it perturbs (see DESIGN.md §8 for the full table).
struct CatalogEntry {
  const char* name;       ///< stable identifier (bench rows, sweep labels)
  const char* paper_ref;  ///< the section/figure the strategy stresses
  AdversaryConfig config;
};

/// The built-in attack catalog, in fixed order: oscillate, score-aware,
/// whitewash, coalition. The order is load-bearing for the sweep's
/// deterministic draws and the frontier bench's task grid.
[[nodiscard]] const std::vector<CatalogEntry>& catalog();

}  // namespace lifting::adversary

#endif  // LIFTING_ADVERSARY_STRATEGY_HPP
