#ifndef LIFTING_FAULTS_PLAN_HPP
#define LIFTING_FAULTS_PLAN_HPP

#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "common/time.hpp"
#include "common/types.hpp"

/// Fault-injection plans (DESIGN.md §11).
///
/// A FaultPlan is pure data describing network-level misbehavior to impose
/// at the net::Transport seam: Gilbert–Elliott bursty loss, delay spikes,
/// datagram duplication and reordering, and asymmetric partition windows.
/// The same plan drives the simulator (via FaultInjector owned by
/// runtime::Experiment) and real loopback processes (via the injector each
/// lifting_node wraps around its UdpTransport), so robustness scenarios
/// measured in simulation are reproducible on the wire.
///
/// A default-constructed plan is empty(): the injector is a pure
/// pass-through that constructs no rng and draws nothing, which is what
/// keeps the fixed-seed determinism goldens byte-identical.

namespace lifting::faults {

/// One asymmetric partition window: during [start, end), traffic crossing
/// the island boundary is dropped in the configured direction(s). The
/// island is the id-class `node % modulus == remainder` — membership is
/// pure arithmetic, so every process (and every thread of a sweep) agrees
/// on it without coordination.
struct PartitionWindow {
  Duration start = Duration::zero();
  Duration end = Duration::zero();
  std::uint32_t modulus = 0;  // 0 disables the window
  std::uint32_t remainder = 0;
  bool drop_island_to_main = true;
  bool drop_main_to_island = true;
  friend bool operator==(const PartitionWindow&,
                         const PartitionWindow&) = default;

  [[nodiscard]] bool contains(NodeId id) const noexcept {
    return modulus != 0 && id.value() % modulus == remainder;
  }
  [[nodiscard]] bool active_at(Duration since_epoch) const noexcept {
    return modulus != 0 && since_epoch >= start && since_epoch < end;
  }
};

/// Deterministic description of the faults to inject. Probabilities are
/// per-datagram; the Gilbert–Elliott chain advances one step per datagram
/// a sender submits (state is per-sender, so concurrent sweeps and
/// separate wire processes never share a chain).
struct FaultPlan {
  // ---- Gilbert–Elliott bursty loss (replaces "independent Bernoulli
  // only"): two states, good and bad, each with its own loss rate.
  double p_good_to_bad = 0.0;
  double p_bad_to_good = 0.0;
  double loss_good = 0.0;
  double loss_bad = 0.0;

  // ---- delay spikes: with probability `delay_spike_probability` a
  // datagram is held for an extra uniform [min, max] before submission.
  double delay_spike_probability = 0.0;
  Duration delay_spike_min = Duration::zero();
  Duration delay_spike_max = Duration::zero();

  // ---- duplication / reordering
  double duplicate_probability = 0.0;
  double reorder_probability = 0.0;
  /// A reordered datagram is held for exactly this long, letting later
  /// sends overtake it.
  Duration reorder_delay = Duration::zero();

  // ---- partition/heal windows
  std::vector<PartitionWindow> partitions;
  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;

  /// True when no fault can ever trigger — the injector then never
  /// constructs a generator or draws a number (the determinism contract).
  [[nodiscard]] bool empty() const noexcept {
    return loss_good <= 0.0 && loss_bad <= 0.0 &&
           delay_spike_probability <= 0.0 && duplicate_probability <= 0.0 &&
           reorder_probability <= 0.0 && partitions.empty();
  }

  void validate() const {
    auto prob = [](double p, const char* what) {
      require(p >= 0.0 && p <= 1.0, what);
    };
    prob(p_good_to_bad, "faults: p_good_to_bad must be a probability");
    prob(p_bad_to_good, "faults: p_bad_to_good must be a probability");
    prob(loss_good, "faults: loss_good must be a probability");
    prob(loss_bad, "faults: loss_bad must be a probability");
    prob(delay_spike_probability,
         "faults: delay_spike_probability must be a probability");
    prob(duplicate_probability,
         "faults: duplicate_probability must be a probability");
    prob(reorder_probability,
         "faults: reorder_probability must be a probability");
    require(delay_spike_min >= Duration::zero() &&
                delay_spike_max >= delay_spike_min,
            "faults: delay spike range must satisfy 0 <= min <= max");
    require(reorder_delay >= Duration::zero(),
            "faults: reorder_delay must be non-negative");
    for (const auto& w : partitions) {
      require(w.modulus == 0 || w.remainder < w.modulus,
              "faults: partition remainder must be < modulus");
      require(w.end >= w.start,
              "faults: partition window must satisfy start <= end");
    }
  }
};

}  // namespace lifting::faults

#endif  // LIFTING_FAULTS_PLAN_HPP
