#ifndef LIFTING_OBS_REGISTRY_HPP
#define LIFTING_OBS_REGISTRY_HPP

#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>

/// Unified metrics registry (DESIGN.md §13): one named home for the
/// counters that live scattered across the Mailer's send tally, the
/// engines, the agents' audit-channel totals, FaultInjector::Stats and the
/// transports. Deployments *fold into* a Registry (Experiment::
/// collect_metrics, NodeHost::collect_metrics) — the hot-path structs
/// stay as they are; the registry is the reporting surface: self-
/// describing bench JSON rows and the periodic mid-run STAT lines the
/// wire protocol streams.
///
/// Entries live in a deque so references stay stable across registration;
/// iteration is registration order, which keeps every exported listing
/// deterministic.

namespace lifting::obs {

class Registry {
 public:
  enum class Kind : std::uint8_t { kCounter, kGauge };

  struct Entry {
    std::string name;
    Kind kind = Kind::kCounter;
    std::uint64_t counter = 0;
    double gauge = 0.0;
  };

  /// Monotone event count. Registered on first use; later calls with the
  /// same name return the same (stable) slot.
  [[nodiscard]] std::uint64_t& counter(std::string_view name) {
    return slot(name, Kind::kCounter).counter;
  }
  /// Point-in-time value (timers, rates, sizes).
  [[nodiscard]] double& gauge(std::string_view name) {
    return slot(name, Kind::kGauge).gauge;
  }

  /// Sets a counter to an externally folded total (the collect_metrics
  /// pattern re-folds absolute totals rather than accumulating deltas).
  void set_counter(std::string_view name, std::uint64_t value) {
    counter(name) = value;
  }

  [[nodiscard]] const std::deque<Entry>& entries() const noexcept {
    return entries_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

 private:
  [[nodiscard]] Entry& slot(std::string_view name, Kind kind);

  std::deque<Entry> entries_;
};

/// Scoped wall-clock phase timer: on destruction writes the elapsed
/// seconds into `registry.gauge(name)`. Reporting-side only (benches,
/// tools) — never inside deterministic protocol code.
class ScopedTimer {
 public:
  ScopedTimer(Registry& registry, std::string name)
      : registry_(registry),
        name_(std::move(name)),
        start_(std::chrono::steady_clock::now()) {}

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() {
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    registry_.gauge(name_) = seconds;
  }

 private:
  Registry& registry_;
  std::string name_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace lifting::obs

#endif  // LIFTING_OBS_REGISTRY_HPP
