/// Micro-benchmarks of the substrate hot paths (google-benchmark):
/// event queue throughput, entropy computation, RNG sampling, the blame
/// sampler, message size computation, the network's send + deliver round
/// trip, and the witness log behind every received proposal and confirm
/// request.
///
/// The JSON context carries `lifting_build_type` — the build type of THIS
/// binary (google-benchmark's own `library_build_type` describes the
/// packaged benchmark library, not our code). BENCH_baseline.json must
/// say `"lifting_build_type": "release"`; CI enforces it.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "analysis/sampler.hpp"
#include "common/build_info.hpp"
#include "common/rng.hpp"
#include "gossip/message.hpp"
#include "lifting/history.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "stats/entropy.hpp"

namespace {

using namespace lifting;

void BM_EventQueuePushPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Pcg32 rng{1};
  for (auto _ : state) {
    sim::EventQueue q;
    for (std::size_t i = 0; i < n; ++i) {
      q.push(kSimEpoch + microseconds(rng.below(1'000'000)), [] {});
    }
    while (!q.empty()) {
      benchmark::DoNotOptimize(q.pop());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1024)->Arg(16384);

void BM_SimulatorSelfScheduling(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int count = 0;
    std::function<void()> tick = [&] {
      if (++count < 10000) sim.schedule_after(microseconds(10), [&] { tick(); });
    };
    sim.schedule_after(microseconds(1), [&] { tick(); });
    sim.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          10000);
}
BENCHMARK(BM_SimulatorSelfScheduling);

/// The network's send + deliver round trip on the protocol payload: each
/// iteration sends `n` small requests from one node to three others and
/// runs the simulator until all are delivered. The pool is warmed first,
/// so this times slot acquire/release and pool-page indexing, not growth.
/// Arg 4096 keeps 16 pool pages in flight at once.
void BM_NetworkSendDeliver(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  sim::Simulator sim;
  sim::Network<gossip::Message> net(sim, Pcg32{9});
  sim::LinkProfile link;
  link.upload_capacity_bps = 1e12;
  std::uint64_t delivered = 0;
  for (std::uint32_t id = 0; id < 4; ++id) {
    net.add_node(NodeId{id}, link,
                 [&](sim::Delivery<gossip::Message>&) { ++delivered; });
  }
  const gossip::ChunkIdList chunks{ChunkId{1}, ChunkId{2}, ChunkId{3}};
  const auto round = [&] {
    for (int i = 0; i < n; ++i) {
      net.send(NodeId{0}, NodeId{1 + static_cast<std::uint32_t>(i % 3)},
               sim::Channel::kDatagram, 60,
               gossip::RequestMsg{static_cast<PeriodIndex>(i), chunks});
    }
    sim.run();
  };
  round();  // grow the pool and the event arena outside the timing
  for (auto _ : state) round();
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_NetworkSendDeliver)->Arg(64)->Arg(4096);

void BM_ShannonEntropy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Pcg32 rng{2};
  std::vector<std::uint64_t> counts(n);
  for (auto& c : counts) c = rng.below(20) + 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::shannon_entropy(counts));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ShannonEntropy)->Arg(600)->Arg(10000);

void BM_MultisetEntropy(benchmark::State& state) {
  Pcg32 rng{3};
  std::vector<NodeId> multiset;
  for (int i = 0; i < 600; ++i) multiset.push_back(NodeId{rng.below(10000)});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        stats::multiset_entropy<NodeId>({multiset.data(), multiset.size()}));
  }
}
BENCHMARK(BM_MultisetEntropy);

void BM_SampleKDistinct(benchmark::State& state) {
  Pcg32 rng{4};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sample_k_distinct(rng, 10000, 12));
  }
}
BENCHMARK(BM_SampleKDistinct);

void BM_BlameSamplerHonestPeriod(benchmark::State& state) {
  const analysis::ProtocolModel model{0.07, 12, 4, 1.0};
  analysis::BlameSampler sampler(model);
  Pcg32 rng{5};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.sample_honest(rng));
  }
}
BENCHMARK(BM_BlameSamplerHonestPeriod);

void BM_WireSizePropose(benchmark::State& state) {
  gossip::ProposeMsg msg;
  msg.period = 1;
  for (std::uint64_t i = 0; i < 10; ++i) msg.chunks.push_back(ChunkId{i});
  const gossip::Message m{msg};
  for (auto _ : state) {
    benchmark::DoNotOptimize(gossip::wire_size(m));
  }
}
BENCHMARK(BM_WireSizePropose);

// ---- ReceivedProposalLog at a full retention window: the planetlab shape
// (Tg = 500 ms, f = 7, ~28 chunks per proposal, 25 s window) holds 50
// periods x 7 proposers = 350 entries.

constexpr int kWindowPeriods = 50;
constexpr std::uint32_t kProposersPerPeriod = 7;
constexpr std::uint32_t kChunksPerProposal = 28;
constexpr auto kPeriod = milliseconds(500);

/// The proposers of `period`: 7 distinct ids out of 1000, fixed per period.
NodeId window_proposer(PeriodIndex period, std::uint32_t k) {
  return NodeId{(period * 131 + k * 37) % 1000};
}

/// Proposal `k` of `period`: 28 consecutive stream chunks, staggered per
/// proposer the way overlapping gossip proposals are.
gossip::ChunkIdList window_chunks(PeriodIndex period, std::uint32_t k) {
  gossip::ChunkIdList out;
  const std::uint32_t first = period * 20 + k * 3;
  for (std::uint32_t c = 0; c < kChunksPerProposal; ++c) {
    out.push_back(ChunkId{first + c});
  }
  return out;
}

/// Records one period's proposals, then prunes to the window — the work
/// Agent::on_propose_received and Agent::tick do per period.
void record_period(ReceivedProposalLog& log, PeriodIndex period) {
  const TimePoint now = kSimEpoch + period * kPeriod;
  for (std::uint32_t k = 0; k < kProposersPerPeriod; ++k) {
    log.record(now, window_proposer(period, k), period,
               window_chunks(period, k));
  }
  log.prune(now - std::min(now.time_since_epoch(), kWindowPeriods * kPeriod));
}

/// A log filled to the window, ending at period `*last`.
ReceivedProposalLog full_window_log(PeriodIndex* last) {
  ReceivedProposalLog log;
  PeriodIndex p = 0;
  for (; p < 3 * kWindowPeriods; ++p) record_period(log, p);
  *last = p - 1;
  return log;
}

void BM_ReceivedLogRecord(benchmark::State& state) {
  PeriodIndex p = 0;
  auto log = full_window_log(&p);
  for (auto _ : state) {
    record_period(log, ++p);
    benchmark::DoNotOptimize(log.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kProposersPerPeriod);
}
BENCHMARK(BM_ReceivedLogRecord);

/// The duplicate guard on a fresh proposal: a miss scans the whole window.
void BM_ReceivedLogHas(benchmark::State& state) {
  PeriodIndex last = 0;
  const auto log = full_window_log(&last);
  std::uint32_t k = 0;
  for (auto _ : state) {
    k = (k + 1) % kProposersPerPeriod;
    benchmark::DoNotOptimize(log.has(window_proposer(last + 1, k), last + 1));
  }
}
BENCHMARK(BM_ReceivedLogHas);

/// A witness answering for 4 requested chunks of a proposal. Arg 0: a
/// confirm request for one of the last 3 periods' proposals, bounded by
/// the confirm window (a hit). Arg 1: a history-poll claim the witness
/// never received, searched over the whole log (a denial, the worst case).
void BM_ReceivedLogConfirms(benchmark::State& state) {
  PeriodIndex last = 0;
  const auto log = full_window_log(&last);
  const bool deny = state.range(0) == 1;
  const TimePoint now = kSimEpoch + last * kPeriod;
  const TimePoint since = deny ? kSimEpoch : now - 3 * kPeriod;
  std::vector<std::pair<NodeId, gossip::ChunkIdList>> queries;
  for (std::uint32_t i = 0; i < 21; ++i) {
    const PeriodIndex period = last - i % 3;
    const std::uint32_t k = i % kProposersPerPeriod;
    const auto proposal = window_chunks(period, k);
    gossip::ChunkIdList asked{proposal[27], proposal[9], proposal[18],
                              proposal[3]};
    if (deny) asked.push_back(ChunkId{1u << 30});
    queries.emplace_back(window_proposer(period, k), asked);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [subject, asked] = queries[i];
    benchmark::DoNotOptimize(log.confirms(subject, asked, since));
    i = i + 1 == queries.size() ? 0 : i + 1;
  }
}
BENCHMARK(BM_ReceivedLogConfirms)->Arg(0)->Arg(1);

}  // namespace

int main(int argc, char** argv) {
  benchmark::AddCustomContext("lifting_build_type", lifting::build_type());
  benchmark::AddCustomContext("lifting_sanitizer", lifting::sanitizer_tag());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
