/// Churn-capable deployment bench: the stream-health scenario under
/// Poisson join/leave churn (5%/min arrivals + 5%/min departures, half of
/// them crashes), with the full LiFTinG verification stack and 10%
/// deterred freeriders.
///
/// Reports the same throughput columns as bench_scale_nodes (events/s,
/// wall-seconds per simulated second, health at 5 s lag) plus the churn
/// ledger: joins/departures executed, and the honest wrongful-blame split
/// between stayers and leavers — a crashed partner looks like a δ1
/// freerider to its verifiers until the failure detector fires, and that
/// blame must be accounted separately (per-node means; leavers accrue a
/// post-departure pulse on top of their pro-rated loss noise). The run
/// ends with a wind-down drain and prints the delivery-pool leak count,
/// which must be 0.
///
/// A second table runs the churn-resilient accountability scenario
/// (DESIGN.md §7): the same churn plus manager handoff, a 500 ms divergent
/// membership-view lag, and 50% of departures rejoining. Per population it
/// reports the handoff count (assignment promotions), the manager-quorum
/// trajectory (mean at end, minimum over per-second samples — without
/// handoff this decays with departures; with it the minimum stays pinned
/// at M until the base pool thins), and the honest wrongful-blame split
/// by churn role: stayer / leaver / rejoiner. Pool-leak must still be 0.
///
/// Usage: bench_churn [nodes...]
///   default populations: 1000 5000

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <thread>
#include <vector>

#include "common/build_info.hpp"
#include "common/parse_number.hpp"
#include "common/table.hpp"
#include "runtime/experiment.hpp"

namespace {

using namespace lifting;

/// The one churn model both tables run ("same churn" in the output is a
/// code-level guarantee): 5%/min joins + 5%/min leaves/crashes, half
/// crashes, 10% freeriding joiners. The resilience table adds only the
/// rejoin knobs on top.
runtime::ScenarioTimeline::PoissonChurn churn_model(
    const runtime::ScenarioConfig& cfg, double sim_seconds,
    double rejoin_fraction) {
  runtime::ScenarioTimeline::PoissonChurn churn;
  churn.arrival_fraction_per_min = 0.05;    // 5%/min joins
  churn.departure_fraction_per_min = 0.05;  // 5%/min leaves+crashes
  churn.crash_fraction = 0.5;
  churn.freerider_fraction = 0.10;
  churn.freerider_behavior = cfg.freerider_behavior;
  churn.rejoin_fraction = rejoin_fraction;
  churn.rejoin_delay_mean = seconds(5.0);
  churn.start = seconds(2.0);
  churn.end = seconds(sim_seconds * 0.9);
  return churn;
}

/// Deployment knobs shared by both tables, without a timeline.
runtime::ScenarioConfig base_config(std::uint32_t n, double sim_seconds) {
  auto cfg = runtime::ScenarioConfig::planetlab();
  cfg.nodes = n;
  cfg.duration = seconds(sim_seconds);
  cfg.stream.duration = seconds(sim_seconds * 0.9);
  cfg.weak_fraction = 0.2;
  cfg.freerider_fraction = 0.10;
  cfg.freerider_behavior = gossip::BehaviorSpec::freerider(0.035);
  cfg.failure_detection = seconds(2.0);
  return cfg;
}

runtime::ScenarioConfig churn_config(std::uint32_t n, double sim_seconds) {
  auto cfg = base_config(n, sim_seconds);
  cfg.timeline = runtime::ScenarioTimeline::poisson_churn(
      churn_model(cfg, sim_seconds, /*rejoin_fraction=*/0.0), n, cfg.seed);
  return cfg;
}

double horizon_seconds(std::uint32_t n) {
  if (n <= 1000) return 60.0;
  if (n <= 5000) return 20.0;
  return 10.0;
}

struct Row {
  std::uint32_t nodes = 0;
  double sim_seconds = 0.0;
  std::uint64_t events = 0;
  double wall_seconds = 0.0;
  std::size_t joins = 0;
  std::size_t departures = 0;
  double health = 0.0;
  double stayer_blame = 0.0;  // mean ledger blame per honest stayer
  double leaver_blame = 0.0;  // mean ledger blame per honest leaver
  std::size_t pool_leak = 0;
  // Delivery-health counters (churn drops to departed nodes; the fault
  // and audit columns stay 0 here — no fault plan, modeled-TCP audits —
  // but are surfaced so a future faulty variant of this bench can't
  // silently hide them).
  std::uint64_t dropped = 0;          // network datagrams_dropped
  std::uint64_t faults_duplicated = 0;
  std::uint64_t audit_retries = 0;
};

/// The churn-resilient accountability scenario: churn_config's exact churn
/// model plus manager handoff, divergent views, and rejoining leavers
/// (half of the departed come back after ~5 s offline).
runtime::ScenarioConfig resilience_config(std::uint32_t n,
                                          double sim_seconds) {
  auto cfg = base_config(n, sim_seconds);
  cfg.view_propagation = milliseconds(500);
  cfg.manager_handoff_delay = milliseconds(500);
  cfg.timeline = runtime::ScenarioTimeline::poisson_churn(
      churn_model(cfg, sim_seconds, /*rejoin_fraction=*/0.5), n, cfg.seed);
  return cfg;
}

struct ResilienceRow {
  std::uint32_t nodes = 0;
  std::uint64_t handoffs = 0;
  std::size_t rejoins = 0;
  double quorum_mean_end = 0.0;
  std::size_t quorum_min = 0;  // minimum over per-second samples
  double stayer_blame = 0.0;
  double leaver_blame = 0.0;
  double rejoiner_blame = 0.0;
  std::size_t pool_leak = 0;
};

ResilienceRow run_resilience(std::uint32_t n) {
  ResilienceRow row;
  row.nodes = n;
  const double sim_seconds = horizon_seconds(n);
  runtime::Experiment ex(resilience_config(n, sim_seconds));
  // Drive in 1 s slices to sample the quorum trajectory (quorum_stats is
  // outcome-neutral by the assignment's replay contract).
  row.quorum_min = ex.config().lifting.managers;
  for (double t = 1.0; t <= sim_seconds; t += 1.0) {
    ex.run_until(kSimEpoch + seconds(t));
    const auto quorum = ex.quorum_stats();
    row.quorum_min = std::min(row.quorum_min, quorum.min);
    row.quorum_mean_end = quorum.mean;
  }
  ex.run();
  row.handoffs = ex.handoff_promotions();
  row.rejoins = ex.rejoins().size();
  const auto split = ex.honest_blame_split();
  row.stayer_blame = split.stayer_mean();
  row.leaver_blame = split.leaver_mean();
  row.rejoiner_blame = split.rejoiner_mean();
  ex.wind_down();
  row.pool_leak = ex.network().in_flight();
  return row;
}

Row run(std::uint32_t n) {
  Row row;
  row.nodes = n;
  row.sim_seconds = horizon_seconds(n);
  runtime::Experiment ex(churn_config(n, row.sim_seconds));
  const auto t0 = std::chrono::steady_clock::now();
  ex.run();
  const auto t1 = std::chrono::steady_clock::now();
  row.events = ex.simulator().events_processed();
  row.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  row.joins = ex.joins().size();
  row.departures = ex.departures().size();

  gossip::PlaybackConfig playback;
  playback.clear_threshold = 0.95;
  playback.warmup = seconds(2.0);
  const auto curve = ex.health_curve({5.0}, /*honest_only=*/true, playback);
  row.health = curve.empty() ? 0.0 : curve.front().fraction_clear;

  const auto split = ex.honest_blame_split();
  row.stayer_blame = split.stayer_mean();
  row.leaver_blame = split.leaver_mean();
  row.dropped = ex.network_stats().datagrams_dropped;
  row.faults_duplicated = ex.fault_stats().duplicated;
  row.audit_retries = ex.audit_channel_totals().retries;

  // Leak check: drain every in-flight delivery and one-shot timer; the
  // pooled slots must all come home.
  ex.wind_down();
  row.pool_leak = ex.network().in_flight();
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::uint32_t> populations;
  for (int i = 1; i < argc; ++i) {
    std::uint32_t v = 0;
    if (!parse_number(std::string_view(argv[i]), v) || v < 3 ||
        v > 10'000'000) {
      std::fprintf(stderr,
                   "bench_churn: '%s' is not a valid population "
                   "(expected an integer >= 3)\n",
                   argv[i]);
      return 2;
    }
    populations.push_back(v);
  }
  if (populations.empty()) populations = {1000, 5000};

  std::printf("=== churn deployment: stream health under 5%%/min join+leave ===\n");
  // Self-describing header: saved bench logs must say what was measured.
  std::printf("build=%s sanitizer=%s threads=1 (serial rows) "
              "hardware_threads=%u\n",
              lifting::build_type(), lifting::sanitizer_tag(),
              std::thread::hardware_concurrency());
  std::printf(
      "674 kbps stream, f=7, Tg=500 ms, LiFTinG on, 10%% deterred "
      "freeriders,\n5%%/min Poisson arrivals + departures (half crashes, "
      "2 s failure detector)\n\n");

  lifting::TextTable table({"nodes", "sim s", "events", "wall s", "events/s",
                            "joins", "departs", "dropped", "health@5s",
                            "blame/stayer", "blame/leaver", "pool leak"});
  int leaks = 0;
  for (const auto n : populations) {
    const Row row = run(n);
    std::fprintf(stderr,
                 "[churn] n=%u: %llu events in %.2fs (%.0f ev/s), "
                 "+%zu/-%zu nodes, dropped=%llu dup=%llu retries=%llu, "
                 "leak=%zu\n",
                 row.nodes, (unsigned long long)row.events, row.wall_seconds,
                 static_cast<double>(row.events) / row.wall_seconds,
                 row.joins, row.departures,
                 (unsigned long long)row.dropped,
                 (unsigned long long)row.faults_duplicated,
                 (unsigned long long)row.audit_retries, row.pool_leak);
    if (row.pool_leak != 0) ++leaks;
    table.add_row({lifting::TextTable::num(row.nodes, 0),
                   lifting::TextTable::num(row.sim_seconds, 0),
                   lifting::TextTable::num(static_cast<double>(row.events), 0),
                   lifting::TextTable::num(row.wall_seconds, 2),
                   lifting::TextTable::num(static_cast<double>(row.events) /
                                               row.wall_seconds,
                                           0),
                   lifting::TextTable::num(static_cast<double>(row.joins), 0),
                   lifting::TextTable::num(static_cast<double>(row.departures),
                                           0),
                   lifting::TextTable::num(static_cast<double>(row.dropped), 0),
                   lifting::TextTable::num(row.health, 3),
                   lifting::TextTable::num(row.stayer_blame, 2),
                   lifting::TextTable::num(row.leaver_blame, 2),
                   lifting::TextTable::num(static_cast<double>(row.pool_leak),
                                           0)});
    std::fflush(stdout);
  }
  table.print();

  std::printf(
      "\n=== churn-resilient accountability: manager handoff + 500 ms "
      "divergent views + rejoin ===\n"
      "same churn, 50%% of departures rejoin after ~5 s offline; quorum "
      "min sampled per second\n\n");
  lifting::TextTable resilience({"nodes", "handoffs", "rejoins",
                                 "quorum min", "quorum mean", "blame/stayer",
                                 "blame/leaver", "blame/rejoiner",
                                 "pool leak"});
  for (const auto n : populations) {
    const ResilienceRow row = run_resilience(n);
    std::fprintf(stderr,
                 "[resilience] n=%u: %llu handoffs, %zu rejoins, quorum "
                 "min=%zu, leak=%zu\n",
                 row.nodes, (unsigned long long)row.handoffs, row.rejoins,
                 row.quorum_min, row.pool_leak);
    if (row.pool_leak != 0) ++leaks;
    resilience.add_row(
        {lifting::TextTable::num(row.nodes, 0),
         lifting::TextTable::num(static_cast<double>(row.handoffs), 0),
         lifting::TextTable::num(static_cast<double>(row.rejoins), 0),
         lifting::TextTable::num(static_cast<double>(row.quorum_min), 0),
         lifting::TextTable::num(row.quorum_mean_end, 2),
         lifting::TextTable::num(row.stayer_blame, 2),
         lifting::TextTable::num(row.leaver_blame, 2),
         lifting::TextTable::num(row.rejoiner_blame, 2),
         lifting::TextTable::num(static_cast<double>(row.pool_leak), 0)});
    std::fflush(stdout);
  }
  resilience.print();
  return leaks == 0 ? 0 : 1;
}
