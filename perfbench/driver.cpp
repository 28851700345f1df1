/// The repository benchmark's driver: runs one workload on the simulator
/// backend, checks its outputs, and prints the metrics as the last line of
/// standard output. perfbench/run.py builds it and relays its arguments;
/// perfbench/README.md documents the workloads and every metric.
///
/// Usage: perfbench_driver --workload NAME [--seed N] [--seconds S]
///                         [--trace 0|1] [--health-floor F]
///                         [--trace-out PATH]
///
///   --trace 0 (timed run): set-up repeated kSetupRepeats times, then whole
///     simulated runs (or whole sweep passes) for about --seconds, then the
///     untimed check pass; prints the end-to-end metrics.
///   --trace 1 (traced run): an untraced reference run, the traced run that
///     splits the time by layer (recv_tracer.hpp), and the checks that tie
///     the two together; prints the per-layer metrics and writes the spans
///     to --trace-out.
///
/// Exit 0 when every check passed, 1 when one failed (the result line is
/// still printed, with "correct": false), 2 on a usage error.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "recv_tracer.hpp"  // includes alloc_tally.hpp: single TU only
#include "runtime/runner.hpp"
#include "runtime/sweep.hpp"

namespace {

using namespace lifting;
using perfbench::Clock;
using perfbench::KindStat;
using perfbench::KindStats;
using perfbench::RecvTracer;

/// Set-up is short next to a run, so it is repeated and its median kept.
constexpr int kSetupRepeats = 15;
/// Health is judged at this playback lag (bench_scale_nodes' column).
constexpr double kHealthLagSeconds = 5.0;
/// lifting.steady_allocs_per_sim_s counts receive allocations from this
/// simulated time on: past the 2 s playback warm-up and the first
/// confirm/cross-check windows, so only per-period work remains.
constexpr double kSteadyFromSeconds = 5.0;
/// Flight-recorder ring for the armed run (32 MiB of 32-byte records).
constexpr std::size_t kArmedRingRecords = std::size_t{1} << 20;
constexpr unsigned kSweepThreads = 2;
constexpr std::uint32_t kSweepCases = 400;

enum class Workload { kPlanetlab1k, kGossipOnly5k, kSweep400 };

struct Options {
  Workload workload = Workload::kPlanetlab1k;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double health_floor = 0.0;
  const char* trace_out = nullptr;
};

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

// ------------------------------------------------------------- workloads

/// bench_scale_nodes' stream-health scenario (Fig. 1's deployment shape:
/// 674 kbps stream, f = 7, Tg = 500 ms, PlanetLab-like lossy links, 20%
/// weak nodes, 10% deterred freeriders) at population n.
runtime::ScenarioConfig stream_health_config(std::uint32_t n,
                                             double sim_seconds,
                                             std::uint64_t seed) {
  auto cfg = runtime::ScenarioConfig::planetlab();
  cfg.nodes = n;
  cfg.seed = seed;
  cfg.duration = seconds(sim_seconds);
  cfg.stream.duration = seconds(sim_seconds * 0.9);
  cfg.weak_fraction = 0.2;
  cfg.freerider_fraction = 0.10;
  cfg.freerider_behavior = gossip::BehaviorSpec::freerider(0.035);
  return cfg;
}

/// Horizons are short enough for several whole runs per timed window: on a
/// shared 4-vCPU Xeon VM, run-to-run noise is ±15%, so one long run per
/// window is not a steady figure, while the median of several is.
runtime::ScenarioConfig single_config(Workload w, std::uint64_t seed) {
  if (w == Workload::kPlanetlab1k) return stream_health_config(1000, 15.0, seed);
  auto cfg = stream_health_config(5000, 10.0, seed);
  cfg.lifting_enabled = false;
  return cfg;
}

/// The 400-case sweep. Case shapes (population, horizon, Δ, loss, churn
/// timeline, adversary, RPS knobs) are the fixed scenario_sweep_specs
/// cases; the benchmark seed re-seeds every run, so a fresh seed gives new
/// role draws, links and protocol randomness over the same shapes.
std::vector<runtime::RunSpec> sweep_specs(std::uint64_t seed) {
  auto specs = runtime::scenario_sweep_specs(kSweepCases);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].seed = runtime::derive_task_seed(seed, i);
    specs[i].config.seed = specs[i].seed;
  }
  return specs;
}

// ------------------------------------------------------------ one run

/// What a run produced, compared across traced/untraced and serial/parallel
/// executions of the same input.
struct Outcome {
  std::uint64_t events = 0;
  std::vector<std::pair<std::string, std::uint64_t>> sent;  // sent.<kind>.*
  double health = 0.0;
  double detection = 0.0;
  double false_positive = 0.0;
  friend bool operator==(const Outcome&, const Outcome&) = default;
};

double health_clear(runtime::Experiment& ex) {
  gossip::PlaybackConfig playback;
  playback.clear_threshold = 0.95;
  playback.warmup = seconds(2.0);
  const auto curve =
      ex.health_curve({kHealthLagSeconds}, /*honest_only=*/true, playback);
  return curve.empty() ? 0.0 : curve.front().fraction_clear;
}

Outcome observe(runtime::Experiment& ex) {
  Outcome o;
  o.events = ex.simulator().events_processed();
  o.sent = ex.metrics().snapshot();
  std::sort(o.sent.begin(), o.sent.end());
  o.health = health_clear(ex);
  if (ex.has_agents()) {
    const auto d = ex.detection_at(ex.config().lifting.eta);
    o.detection = d.detection;
    o.false_positive = d.false_positive;
  }
  return o;
}

/// Per-run layer figures of a traced run.
struct TraceFigures {
  double wind_down_s = 0.0;
  double health_s = 0.0;
  std::size_t pending_peak = 0;
  std::size_t in_flight_peak = 0;
  std::uint64_t steady_lifting_allocs = 0;
  double steady_sim_s = 0.0;
  std::uint64_t delivered = 0;  // datagram + reliable handler invocations
  std::uint64_t verification_bytes = 0;
  std::uint64_t dissemination_bytes = 0;
};

struct TaskResult {
  runtime::RunDigest digest;
  Outcome outcome;          // when observed
  double build_s = 0.0;     // construct or reset
  bool reset = false;       // build was Experiment::reset
  std::uint64_t build_allocs = 0;
  double run_s = 0.0;       // event loop to the horizon
  double total_s = 0.0;     // build + run + digest/observe + wind_down
  double sim_s = 0.0;
  bool drained = false;     // wind_down left no delivery in flight
  TraceFigures trace;
};

struct RunMode {
  bool observe = false;
  RecvTracer* tracer = nullptr;    // traced run: 1-s slices and shims
  std::size_t armed_records = 0;   // arm the flight recorder
  std::uint32_t task = 0;
};

/// One simulated run on a lane, phase by phase: build (construct when the
/// lane is empty, Experiment::reset otherwise — the
/// ParallelRunner::run_specs contract), advance to the horizon, then
/// digest, observe and wind down. Timed runs advance with one run() call;
/// traced runs and their paired references advance in one-simulated-second
/// slices (lockstep below).
class SimRun {
 public:
  SimRun(std::unique_ptr<runtime::Experiment>& lane,
         runtime::ScenarioConfig cfg, const RunMode& mode)
      : mode_(mode), t0_(Clock::now()) {
    RecvTracer* tr = mode_.tracer;
    root_ = tr ? tr->open("run", 0, mode_.task) : 0;
    r_.reset = lane != nullptr;
    const std::uint32_t span =
        tr ? tr->open(r_.reset ? "reset" : "build", root_, mode_.task) : 0;
    const auto b0 = Clock::now();
    const std::uint64_t a0 =
        bench::g_alloc_calls.load(std::memory_order_relaxed);
    if (lane == nullptr) {
      lane = std::make_unique<runtime::Experiment>(std::move(cfg));
    } else {
      lane->reset(std::move(cfg));
    }
    r_.build_allocs = bench::g_alloc_calls.load(std::memory_order_relaxed) - a0;
    r_.build_s = since(b0);
    if (tr) tr->close(span);
    ex_ = lane.get();
    r_.sim_s = to_seconds(ex_->config().duration);
    end_ = kSimEpoch + ex_->config().duration;
    if (mode_.armed_records > 0) ex_->enable_trace(mode_.armed_records);
    if (tr) tr->install(*ex_);
  }
  SimRun(const SimRun&) = delete;
  SimRun& operator=(const SimRun&) = delete;

  /// Runs to the horizon in one call.
  void run_to_end() {
    const auto t0 = Clock::now();
    ex_->run();
    r_.run_s += since(t0);
    now_ = end_;
  }

  /// Advances one simulated second (a slice span when traced); false once
  /// the horizon has been reached.
  bool step() {
    if (now_ >= end_) return false;
    RecvTracer* tr = mode_.tracer;
    const TimePoint from = now_;
    now_ = std::min(now_ + seconds(1.0), end_);
    const std::uint32_t span = tr ? tr->open("slice", root_, mode_.task) : 0;
    const auto t0 = Clock::now();
    ex_->run_until(now_);
    r_.run_s += since(t0);
    if (tr == nullptr) return true;
    const KindStats work = tr->flush(span);
    tr->close(span);
    auto& f = r_.trace;
    f.pending_peak = std::max(f.pending_peak, ex_->simulator().pending_events());
    f.in_flight_peak = std::max(f.in_flight_peak, ex_->network().in_flight());
    if (to_seconds(from) >= kSteadyFromSeconds) {
      f.steady_sim_s += to_seconds(now_ - from);
      for (std::size_t k = gossip::kGossipKindCount; k < work.size(); ++k) {
        f.steady_lifting_allocs += work[k].allocs;
      }
    }
    return true;
  }

  /// Digests and observes the run at the horizon, then winds it down.
  TaskResult finish() {
    RecvTracer* tr = mode_.tracer;
    {
      const std::uint32_t span = tr ? tr->open("health", root_, mode_.task) : 0;
      const auto h0 = Clock::now();
      r_.digest = runtime::RunDigest::of(*ex_);
      if (mode_.observe) r_.outcome = observe(*ex_);
      const auto report = ex_->overhead();
      r_.trace.verification_bytes = report.verification_bytes;
      r_.trace.dissemination_bytes = report.dissemination_bytes;
      r_.trace.health_s = since(h0);
      if (tr) tr->close(span);
    }
    {
      const std::uint32_t span =
          tr ? tr->open("wind_down", root_, mode_.task) : 0;
      const auto w0 = Clock::now();
      ex_->wind_down();
      r_.trace.wind_down_s = since(w0);
      if (tr) {
        tr->flush(span);
        tr->close(span);
      }
    }
    r_.drained = ex_->network().in_flight() == 0;
    const auto& net = ex_->network_stats();
    r_.trace.delivered = net.datagrams_delivered + net.reliable_delivered;
    if (tr) tr->close(root_);
    r_.total_s = since(t0_);
    return r_;
  }

 private:
  RunMode mode_;
  Clock::time_point t0_;
  runtime::Experiment* ex_ = nullptr;
  std::uint32_t root_ = 0;
  TimePoint now_ = kSimEpoch;
  TimePoint end_ = kSimEpoch;
  TaskResult r_;
};

/// A whole run with one run() call: what a user of Experiment does.
TaskResult run_on_lane(std::unique_ptr<runtime::Experiment>& lane,
                       runtime::ScenarioConfig cfg, const RunMode& mode) {
  SimRun run(lane, std::move(cfg), mode);
  run.run_to_end();
  return run.finish();
}

/// Advances runs of one horizon a simulated second at a time, in turn.
/// Paired figures (traced vs untraced, armed vs disarmed) then compare work
/// done under the same host conditions, interleaved every few hundred
/// milliseconds, instead of two whole runs minutes apart on a shared host
/// whose speed drifts by ±15% or more.
void lockstep(std::initializer_list<SimRun*> runs) {
  bool more = true;
  while (more) {
    more = false;
    for (SimRun* r : runs) more |= r->step();
  }
}

// ----------------------------------------------------------- reporting

class Report {
 public:
  void add(std::string name, double value, const char* unit) {
    metrics_.push_back({std::move(name), std::isfinite(value) ? value : 0.0, unit});
  }
  /// A run (one simulated run, the benchmark's unit of work) and whether
  /// every check on it held.
  void op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  bool check(bool cond, const char* what) {
    if (!cond) std::fprintf(stderr, "perfbench: check failed: %s\n", what);
    return cond;
  }
  [[nodiscard]] bool correct() const { return failed_ == 0; }

  void print() const {
    for (const auto& m : metrics_) {
      std::fprintf(stderr, "  %-36s %.6g %s\n", m.name.c_str(), m.value,
                   m.unit);
    }
    std::fprintf(stderr, "  runs attempted %llu, failed %llu\n",
                 static_cast<unsigned long long>(attempted_),
                 static_cast<unsigned long long>(failed_));
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct() ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit);
    }
    std::printf("}}\n");
  }

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Timing figures every workload reports under the same end-to-end names.
struct Timed {
  std::vector<double> setup_s;
  std::vector<double> wall_per_sim_s;  // one per rep / pass
  /// Peak heap growth of the first rep / pass only: later ones reuse the
  /// blocks the thread-local SmallVector spill cache kept, so only the
  /// first shows what one run costs a fresh process.
  std::vector<double> heap_per_node;
  std::vector<double> scenarios_per_s; // one per rep / pass
  std::vector<double> p50_s, p90_s;    // one per rep / pass
  double health = 0.0;
};

void report_end_to_end(const Timed& t, Report& rep) {
  rep.add("setup_s", median(t.setup_s), "s");
  rep.add("wall_per_sim_s", median(t.wall_per_sim_s), "s/s");
  rep.add("heap_bytes_per_node", median(t.heap_per_node), "B");
  rep.add("health_clear", t.health, "fraction");
  rep.add("scenarios_per_s", median(t.scenarios_per_s), "1/s");
  rep.add("scenario_p50_s", median(t.p50_s), "s");
  rep.add("scenario_p90_s", median(t.p90_s), "s");
}

/// Runs `body` once, then again while another run of the last one's length
/// still fits in `budget` seconds.
template <typename Body>
void for_budget(double budget, Body&& body) {
  const auto start = Clock::now();
  double last = 0.0;
  do {
    const auto t0 = Clock::now();
    body();
    last = since(t0);
  } while (since(start) + last <= budget);
}

// ------------------------------------------------- single-deployment runs

void timed_single(const Options& opt, Report& rep) {
  const auto cfg = single_config(opt.workload, opt.seed);
  Timed t;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    runtime::Experiment ex(cfg);
    t.setup_s.push_back(since(t0));
  }
  std::vector<double> task_s;
  Outcome first;
  for_budget(opt.seconds, [&] {
    bench::reset_live_high_water();
    const auto mem0 = bench::AllocSnapshot::now();
    std::unique_ptr<runtime::Experiment> lane;
    const TaskResult r = run_on_lane(lane, cfg, {.observe = true});
    const double heap = static_cast<double>(
        bench::AllocSnapshot::now().high_water_since(mem0));
    lane.reset();
    bool ok = rep.check(r.drained, "wind_down left deliveries in flight");
    ok &= rep.check(r.outcome.health >= opt.health_floor,
                    "health_clear below the floor");
    if (task_s.empty()) {
      first = r.outcome;
    } else {
      ok &= rep.check(r.outcome == first, "repeated run changed its outcome");
    }
    rep.op(ok);
    task_s.push_back(r.total_s);
    t.wall_per_sim_s.push_back(r.run_s / r.sim_s);
    std::fprintf(stderr, "  run %zu: %.3f s to the horizon, %.3f s in all\n",
                 task_s.size(), r.run_s, r.total_s);
    if (t.heap_per_node.empty()) t.heap_per_node.push_back(heap / cfg.nodes);
    t.scenarios_per_s.push_back(1.0 / r.total_s);
  });
  t.p50_s.push_back(percentile(task_s, 0.5));
  t.p90_s.push_back(percentile(task_s, 0.9));
  t.health = first.health;
  std::fprintf(stderr, "  (detection %.4f, false_positive %.4f over %zu runs)\n",
               first.detection, first.false_positive, task_s.size());
  report_end_to_end(t, rep);
}

/// Layer figures accumulated over the traced run(s) of a workload.
struct LayerTotals {
  std::uint64_t events = 0, datagrams_sent = 0, datagrams_lost = 0,
                queue_dropped = 0, delivered = 0, verification_bytes = 0,
                dissemination_bytes = 0, steady_allocs = 0;
  double steady_sim_s = 0.0, run_s = 0.0, wind_down_s = 0.0, health_s = 0.0;
  std::size_t pending_peak = 0, in_flight_peak = 0;
  std::vector<double> run_s_each, reset_s_each, reset_allocs_each;
  std::map<std::string, std::uint64_t> sent;
  double detection_sum = 0.0, false_positive_sum = 0.0;
  std::size_t runs = 0;

  void add(const TaskResult& r) {
    events += r.digest.events;
    datagrams_sent += r.digest.datagrams_sent;
    datagrams_lost += r.digest.datagrams_lost;
    queue_dropped += r.digest.datagrams_dropped;
    delivered += r.trace.delivered;
    verification_bytes += r.trace.verification_bytes;
    dissemination_bytes += r.trace.dissemination_bytes;
    steady_allocs += r.trace.steady_lifting_allocs;
    steady_sim_s += r.trace.steady_sim_s;
    run_s += r.run_s;
    wind_down_s += r.trace.wind_down_s;
    health_s += r.trace.health_s;
    pending_peak = std::max(pending_peak, r.trace.pending_peak);
    in_flight_peak = std::max(in_flight_peak, r.trace.in_flight_peak);
    run_s_each.push_back(r.run_s);
    if (r.reset) {
      reset_s_each.push_back(r.build_s);
      reset_allocs_each.push_back(static_cast<double>(r.build_allocs));
    }
    for (const auto& [name, value] : r.outcome.sent) sent[name] += value;
    detection_sum += r.outcome.detection;
    false_positive_sum += r.outcome.false_positive;
    ++runs;
  }
  [[nodiscard]] std::uint64_t sent_total(const std::string& name) const {
    const auto it = sent.find(name);
    return it == sent.end() ? 0 : it->second;
  }
};

/// Everything the traced run adds to the layer totals, plus the figures
/// measured outside it.
struct LayerExtras {
  double build_s = 0.0;
  double untraced_run_s = 0.0;  // the same work, no shims, no slices
  std::uint64_t untraced_events = 0;
  double busy_share = 0.0;
  double armed_ns_per_event = 0.0;
};

void report_layers(const LayerTotals& L, const KindStats& kinds,
                   const LayerExtras& x, Report& rep) {
  std::uint64_t recv_ns = 0, recv_calls = 0;
  for (const auto& k : kinds) {
    recv_ns += k.ns;
    recv_calls += k.calls;
  }
  const double traced_s = L.run_s + L.wind_down_s;
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };

  // sim
  rep.add("sim.events", d(L.events), "count");
  rep.add("sim.datagrams_sent", d(L.datagrams_sent), "count");
  rep.add("sim.datagrams_lost", d(L.datagrams_lost), "count");
  rep.add("sim.queue_dropped", d(L.queue_dropped), "count");
  rep.add("sim.events_per_s", ratio(d(x.untraced_events), x.untraced_run_s),
          "1/s");
  rep.add("sim.residual_s", traced_s - d(recv_ns) * 1e-9, "s");
  rep.add("sim.pending_peak", d(L.pending_peak), "count");
  rep.add("sim.in_flight_peak", d(L.in_flight_peak), "count");

  // gossip + lifting receive spans. Kinds propose .. score_reply report
  // one by one; the rest (expulsion, audit, RPS) as lifting.recv.other.
  constexpr std::size_t kNamedKinds = 9;
  const auto name = [](std::size_t k) {
    return std::string(gossip::message_kind_name(k));
  };
  const auto add_kind = [&](const std::string& prefix, const KindStat& k) {
    rep.add(prefix + ".calls", d(k.calls), "count");
    rep.add(prefix + ".s", d(k.ns) * 1e-9, "s");
    rep.add(prefix + ".ns_per_call", ratio(d(k.ns), d(k.calls)), "ns");
    rep.add(prefix + ".allocs", d(k.allocs), "count");
  };
  for (std::size_t k = 0; k < kNamedKinds; ++k) {
    const bool engine = k < gossip::kGossipKindCount;
    add_kind((engine ? "gossip.recv." : "lifting.recv.") + name(k), kinds[k]);
  }
  KindStat other;
  for (std::size_t k = kNamedKinds; k < kinds.size(); ++k) other.add(kinds[k]);
  add_kind("lifting.recv.other", other);
  for (std::size_t k = 0; k < gossip::kGossipKindCount; ++k) {
    rep.add("gossip.sent." + name(k) + ".bytes",
            d(L.sent_total("sent." + name(k) + ".bytes")), "B");
  }
  rep.add("lifting.blame_share",
          ratio(d(L.sent_total("sent.blame.count")), d(L.datagrams_sent)),
          "fraction");
  rep.add("lifting.verification_ratio",
          ratio(d(L.verification_bytes), d(L.dissemination_bytes)), "fraction");
  rep.add("lifting.steady_allocs_per_sim_s",
          ratio(d(L.steady_allocs), L.steady_sim_s), "count/s");
  rep.add("lifting.detection", ratio(L.detection_sum, d(L.runs)), "fraction");
  rep.add("lifting.false_positive", ratio(L.false_positive_sum, d(L.runs)),
          "fraction");

  // runtime
  rep.add("runtime.build_s", x.build_s, "s");
  rep.add("runtime.reset_s.p50", percentile(L.reset_s_each, 0.5), "s");
  rep.add("runtime.run_s.p50", percentile(L.run_s_each, 0.5), "s");
  rep.add("runtime.reset_allocs", percentile(L.reset_allocs_each, 0.5),
          "count");
  rep.add("runtime.health_s", L.health_s, "s");
  rep.add("runtime.wind_down_s", L.wind_down_s, "s");
  rep.add("runner.busy_share", x.busy_share, "fraction");

  // obs
  rep.add("obs.armed_ns_per_event", x.armed_ns_per_event, "ns");
  rep.add("trace.overhead_share", ratio(L.run_s, x.untraced_run_s) - 1.0,
          "fraction");
  rep.add("trace.coverage", ratio(d(recv_calls), d(L.delivered)), "fraction");
  rep.add("trace.run_s", traced_s, "s");
}

void traced_single(const Options& opt, Report& rep, RecvTracer& tracer) {
  const auto cfg = single_config(opt.workload, opt.seed);
  const bool armed_too = opt.workload == Workload::kPlanetlab1k;
  LayerExtras x;

  // The untraced reference, the traced run and (planetlab_1k) the armed
  // flight-recorder run, in lockstep.
  std::unique_ptr<runtime::Experiment> ref_lane, traced_lane, armed_lane;
  SimRun ref_run(ref_lane, cfg, {.observe = true});
  SimRun traced_run(traced_lane, cfg, {.observe = true, .tracer = &tracer});
  std::optional<SimRun> armed_run;
  if (armed_too) {
    armed_run.emplace(armed_lane, cfg,
                      RunMode{.observe = true,
                              .armed_records = kArmedRingRecords});
    lockstep({&ref_run, &traced_run, &*armed_run});
  } else {
    lockstep({&ref_run, &traced_run});
  }
  const TaskResult ref = ref_run.finish();
  const TaskResult traced = traced_run.finish();
  ref_lane.reset();
  x.build_s = traced.build_s;

  rep.op(rep.check(ref.drained, "wind_down left deliveries in flight"));
  bool ok = rep.check(traced.drained, "wind_down left deliveries in flight");
  ok &= rep.check(traced.outcome == ref.outcome,
                  "traced fingerprint differs from the untraced run");
  ok &= rep.check(traced.outcome.health >= opt.health_floor,
                  "health_clear below the floor");
  rep.op(ok);
  if (armed_run) {
    const TaskResult armed = armed_run->finish();
    bool armed_ok =
        rep.check(armed.drained, "wind_down left deliveries in flight");
    armed_ok &= rep.check(armed.outcome == ref.outcome,
                          "armed fingerprint differs from the disarmed run");
    rep.op(armed_ok);
    x.armed_ns_per_event =
        (armed.run_s - ref.run_s) * 1e9 / static_cast<double>(ref.digest.events);
  }
  x.untraced_run_s = ref.run_s;
  x.untraced_events = ref.digest.events;

  // One reset of the traced deployment, for the runtime layer's figures.
  LayerTotals L;
  L.add(traced);
  {
    const auto t0 = Clock::now();
    const std::uint64_t a0 = bench::g_alloc_calls.load();
    traced_lane->reset(cfg);
    L.reset_allocs_each.push_back(
        static_cast<double>(bench::g_alloc_calls.load() - a0));
    L.reset_s_each.push_back(since(t0));
  }
  report_layers(L, tracer.totals(), x, rep);
}

// ------------------------------------------------------------ the sweep

struct PassResult {
  std::vector<TaskResult> tasks;
  double wall_s = 0.0;
};

/// One pass over every spec on `runner`, each worker lane reusing its
/// deployment through Experiment::reset (ParallelRunner::run_specs' lane
/// rule, inlined so the reset and the run are timed apart).
PassResult run_pass(runtime::ParallelRunner& runner,
                    const std::vector<runtime::RunSpec>& specs, bool observe) {
  PassResult out;
  out.tasks.resize(specs.size());
  std::vector<std::unique_ptr<runtime::Experiment>> lanes(runner.threads());
  const auto t0 = Clock::now();
  runner.for_each(specs.size(), [&](std::size_t i, unsigned worker) {
    auto cfg = specs[i].config;
    cfg.seed = specs[i].seed;
    out.tasks[i] = run_on_lane(lanes[worker], std::move(cfg),
                               {.observe = observe});
  });
  out.wall_s = since(t0);
  return out;
}

/// The serial reference pass and the traced pass together: each spec runs
/// untraced and traced in lockstep on two serial lanes.
std::pair<PassResult, PassResult> paired_serial_pass(
    const std::vector<runtime::RunSpec>& specs, RecvTracer& tracer) {
  std::pair<PassResult, PassResult> out;
  auto& [reference, traced] = out;
  reference.tasks.resize(specs.size());
  traced.tasks.resize(specs.size());
  std::unique_ptr<runtime::Experiment> ref_lane, traced_lane;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    auto cfg = specs[i].config;
    cfg.seed = specs[i].seed;
    const auto task = static_cast<std::uint32_t>(i);
    SimRun ref_run(ref_lane, cfg, {.observe = true, .task = task});
    SimRun traced_run(traced_lane, std::move(cfg),
                      {.observe = true, .tracer = &tracer, .task = task});
    lockstep({&ref_run, &traced_run});
    reference.tasks[i] = ref_run.finish();
    traced.tasks[i] = traced_run.finish();
  }
  return out;
}

double total_sim_seconds(const std::vector<runtime::RunSpec>& specs) {
  double s = 0.0;
  for (const auto& spec : specs) s += to_seconds(spec.config.duration);
  return s;
}

std::uint32_t max_nodes(const std::vector<runtime::RunSpec>& specs) {
  std::uint32_t n = 0;
  for (const auto& spec : specs) n = std::max(n, spec.config.nodes);
  return n;
}

/// Checks that every run of the serial reference drained.
void check_reference(const PassResult& reference, Report& rep) {
  for (const auto& r : reference.tasks) {
    rep.op(rep.check(r.drained, "wind_down left deliveries in flight"));
  }
}

/// Checks every task of `pass` against the serial reference.
void check_pass(const PassResult& pass, const PassResult& reference,
                bool compare_outcomes, Report& rep) {
  for (std::size_t i = 0; i < pass.tasks.size(); ++i) {
    const TaskResult& r = pass.tasks[i];
    const TaskResult& s = reference.tasks[i];
    bool ok = rep.check(r.drained, "wind_down left deliveries in flight");
    ok &= rep.check(r.digest == s.digest,
                    "sweep digest differs from the serial reference");
    if (compare_outcomes) {
      ok &= rep.check(r.outcome == s.outcome,
                      "traced fingerprint differs from the untraced run");
    }
    rep.op(ok);
  }
}

double mean_health(const PassResult& pass) {
  double sum = 0.0;
  for (const auto& r : pass.tasks) sum += r.outcome.health;
  return pass.tasks.empty() ? 0.0 : sum / static_cast<double>(pass.tasks.size());
}

void timed_sweep(const Options& opt, Report& rep) {
  Timed t;
  std::vector<runtime::RunSpec> specs;
  std::unique_ptr<runtime::ParallelRunner> runner;
  for (int i = 0; i < kSetupRepeats; ++i) {
    runner.reset();
    const auto t0 = Clock::now();
    specs = sweep_specs(opt.seed);
    runner = std::make_unique<runtime::ParallelRunner>(kSweepThreads);
    t.setup_s.push_back(since(t0));
  }
  const double sim_total = total_sim_seconds(specs);
  const double lane_nodes = static_cast<double>(kSweepThreads) * max_nodes(specs);

  std::vector<PassResult> passes;
  for_budget(opt.seconds, [&] {
    bench::reset_live_high_water();
    const auto mem0 = bench::AllocSnapshot::now();
    PassResult pass = run_pass(*runner, specs, /*observe=*/false);
    const double heap = static_cast<double>(
        bench::AllocSnapshot::now().high_water_since(mem0));
    std::vector<double> task_s;
    for (const auto& r : pass.tasks) task_s.push_back(r.total_s);
    t.wall_per_sim_s.push_back(pass.wall_s / sim_total);
    if (t.heap_per_node.empty()) t.heap_per_node.push_back(heap / lane_nodes);
    t.scenarios_per_s.push_back(static_cast<double>(specs.size()) / pass.wall_s);
    t.p50_s.push_back(percentile(task_s, 0.5));
    t.p90_s.push_back(percentile(task_s, 0.9));
    std::fprintf(stderr, "  pass %zu: %.3f s\n", passes.size() + 1,
                 pass.wall_s);
    passes.push_back(std::move(pass));
  });

  // Untimed check pass: the serial reference every timed pass must equal.
  runner.reset();
  runtime::ParallelRunner serial(1);
  const PassResult reference = run_pass(serial, specs, /*observe=*/true);
  check_reference(reference, rep);
  for (const auto& pass : passes) check_pass(pass, reference, false, rep);
  t.health = mean_health(reference);
  rep.op(rep.check(t.health >= opt.health_floor,
                   "mean health_clear below the floor"));
  report_end_to_end(t, rep);
}

void traced_sweep(const Options& opt, Report& rep, RecvTracer& tracer) {
  LayerExtras x;
  const auto s0 = Clock::now();
  const auto specs = sweep_specs(opt.seed);
  auto runner = std::make_unique<runtime::ParallelRunner>(kSweepThreads);
  x.build_s = since(s0);

  const auto [reference, traced] = paired_serial_pass(specs, tracer);
  const PassResult parallel = run_pass(*runner, specs, /*observe=*/false);
  check_reference(reference, rep);
  check_pass(traced, reference, true, rep);
  check_pass(parallel, reference, false, rep);
  rep.op(rep.check(mean_health(traced) >= opt.health_floor,
                   "mean health_clear below the floor"));

  LayerTotals L;
  for (const auto& r : traced.tasks) L.add(r);
  for (const auto& r : reference.tasks) {
    x.untraced_run_s += r.run_s;
    x.untraced_events += r.digest.events;
  }
  double busy = 0.0;
  for (const auto& r : parallel.tasks) busy += r.total_s;
  x.busy_share = busy / (kSweepThreads * parallel.wall_s);
  report_layers(L, tracer.totals(), x, rep);
}

// ------------------------------------------------------------------ CLI

bool parse(int argc, char** argv, Options& opt) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (v == nullptr) return false;
    char* end = nullptr;
    if (std::strcmp(a, "--workload") == 0) {
      if (std::strcmp(v, "planetlab_1k") == 0) {
        opt.workload = Workload::kPlanetlab1k;
      } else if (std::strcmp(v, "gossip_only_5k") == 0) {
        opt.workload = Workload::kGossipOnly5k;
      } else if (std::strcmp(v, "sweep_400") == 0) {
        opt.workload = Workload::kSweep400;
      } else {
        return false;
      }
      have_workload = true;
    } else if (std::strcmp(a, "--seed") == 0) {
      opt.seed = std::strtoull(v, &end, 10);
    } else if (std::strcmp(a, "--seconds") == 0) {
      opt.seconds = std::strtod(v, &end);
      if (!(opt.seconds > 0.0 && opt.seconds <= 3600.0)) return false;
    } else if (std::strcmp(a, "--trace") == 0) {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      opt.trace = v[0] == '1';
    } else if (std::strcmp(a, "--health-floor") == 0) {
      opt.health_floor = std::strtod(v, &end);
    } else if (std::strcmp(a, "--trace-out") == 0) {
      opt.trace_out = v;
    } else {
      return false;
    }
    if (end != nullptr && (end == v || *end != '\0')) return false;
    ++i;
  }
  return have_workload;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload "
                 "planetlab_1k|gossip_only_5k|sweep_400 [--seed N] "
                 "[--seconds S] [--trace 0|1] [--health-floor F] "
                 "[--trace-out PATH]\n");
    return 2;
  }
  std::fprintf(stderr, "perfbench: seed %llu, %s run, %.0f s budget\n",
               static_cast<unsigned long long>(opt.seed),
               opt.trace ? "traced" : "timed", opt.seconds);
  Report rep;
  RecvTracer tracer;
  const bool sweep = opt.workload == Workload::kSweep400;
  if (!opt.trace) {
    sweep ? timed_sweep(opt, rep) : timed_single(opt, rep);
  } else {
    sweep ? traced_sweep(opt, rep, tracer) : traced_single(opt, rep, tracer);
    if (opt.trace_out != nullptr && !tracer.write(opt.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                   opt.trace_out);
      rep.op(false);
    }
  }
  rep.print();
  return rep.correct() ? 0 : 1;
}
