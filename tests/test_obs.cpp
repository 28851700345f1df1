#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "obs/explain.hpp"
#include "obs/export.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "runtime/runner.hpp"

/// The flight recorder (DESIGN.md §13): ring mechanics, the unified
/// registry, the exporters, and the two load-bearing contracts —
///
///  1. Inertness/passivity: a disarmed recorder changes nothing about a
///     fixed-seed run, and an ARMED recorder is passive (no draws, no
///     events), so armed and disarmed digests are bit-identical.
///  2. Provenance: obs::explain reconstructs the full causal chain behind
///     an expulsion — direct-verification verdicts, cross-check blames,
///     the score read, the ballots, the commit — and the report is
///     byte-identical whether the run executed alone or sharded across a
///     ParallelRunner at any thread count.

namespace lifting {
namespace {

using runtime::Experiment;
using runtime::ParallelRunner;
using runtime::RunDigest;
using runtime::ScenarioConfig;

// ------------------------------------------------------------ TraceRing

obs::TraceRecord rec(std::int64_t at_us, std::uint32_t actor,
                     obs::EventKind kind) {
  obs::TraceRecord r;
  r.at_us = at_us;
  r.actor = actor;
  r.subject = actor;
  r.kind = kind;
  return r;
}

TEST(TraceRing, WrapsOverwritingOldest) {
  obs::TraceRing ring;
  EXPECT_FALSE(ring.armed());
  ring.arm(3);
  EXPECT_TRUE(ring.armed());
  EXPECT_EQ(ring.capacity(), 3u);

  for (std::uint32_t i = 0; i < 5; ++i) {
    ring.append(rec(i, i, obs::EventKind::kProposeSent));
  }
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.total_recorded(), 5u);
  EXPECT_EQ(ring.dropped(), 2u);
  // Oldest-first access: records 0 and 1 were overwritten.
  EXPECT_EQ(ring[0].actor, 2u);
  EXPECT_EQ(ring[1].actor, 3u);
  EXPECT_EQ(ring[2].actor, 4u);

  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.total_recorded(), 0u);
  EXPECT_TRUE(ring.armed());  // arming survives a clear
}

TEST(TraceRing, KindNamesAndCategoriesAreTotal) {
  for (std::size_t k = 0; k < obs::kEventKindCount; ++k) {
    const auto kind = static_cast<obs::EventKind>(k);
    EXPECT_STRNE(obs::kind_name(kind), "");
    EXPECT_STRNE(obs::kind_category(kind), "");
  }
}

// ------------------------------------------------------------- Registry

TEST(Registry, SlotsAreStableAndOrdered) {
  obs::Registry reg;
  auto& hits = reg.counter("hits");
  hits += 2;
  reg.gauge("load") = 0.5;
  reg.set_counter("drops", 7);
  reg.counter("hits") += 1;  // same slot on re-lookup
  EXPECT_EQ(&reg.counter("hits"), &hits);
  reg.set_counter("drops", 9);  // an absolute re-fold keeps the slot

  ASSERT_EQ(reg.size(), 3u);
  EXPECT_EQ(reg.entries()[0].name, "hits");
  EXPECT_EQ(reg.entries()[0].counter, 3u);
  EXPECT_EQ(reg.entries()[1].name, "load");
  EXPECT_EQ(reg.entries()[1].kind, obs::Registry::Kind::kGauge);
  EXPECT_DOUBLE_EQ(reg.entries()[1].gauge, 0.5);
  EXPECT_EQ(reg.entries()[2].name, "drops");
  EXPECT_EQ(reg.entries()[2].counter, 9u);
}

// ------------------------------------------------------------ Exporters

TEST(Export, BinaryDumpRoundTripsAndRejectsGarbage) {
  obs::TraceRing ring;
  ring.arm(8);
  ring.append(rec(10, 1, obs::EventKind::kProposeSent));
  ring.append(rec(20, 2, obs::EventKind::kBlameEmitted));

  const std::string path = testing::TempDir() + "obs_roundtrip.trace";
  ASSERT_TRUE(obs::write_binary_dump(path, ring, 7));

  std::vector<obs::TraceRecord> back;
  std::uint32_t node = 0;
  ASSERT_TRUE(obs::read_binary_dump(path, back, &node));
  EXPECT_EQ(node, 7u);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].at_us, 10);
  EXPECT_EQ(back[1].kind, obs::EventKind::kBlameEmitted);

  // Unreadable / corrupt inputs fail instead of fabricating records.
  std::vector<obs::TraceRecord> none;
  EXPECT_FALSE(obs::read_binary_dump(path + ".missing", none, nullptr));
  const std::string garbage = testing::TempDir() + "obs_garbage.trace";
  {
    std::vector<obs::TraceRecord> empty;
    ASSERT_TRUE(obs::write_binary_dump(garbage, empty, 0));
  }
  ASSERT_TRUE(obs::read_binary_dump(garbage, none, nullptr));
  EXPECT_TRUE(none.empty());
}

/// Writes a dump header claiming `count` records, then `body` verbatim —
/// a hand-made (possibly hostile) dump.
std::string write_raw_dump(const std::string& name, std::uint64_t count,
                           const std::vector<obs::TraceRecord>& body) {
  const std::string path = testing::TempDir() + name;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  const std::uint32_t words[4] = {obs::kDumpMagic, obs::kDumpVersion, 3, 0};
  std::fwrite(words, sizeof(words), 1, f);
  std::fwrite(&count, sizeof(count), 1, f);
  if (!body.empty()) {
    std::fwrite(body.data(), sizeof(obs::TraceRecord), body.size(), f);
  }
  std::fclose(f);
  return path;
}

TEST(Export, HugeRecordCountIsRejectedWithoutAllocating) {
  // A 24-byte dump whose header claims 2^40 records: the reader must check
  // the count against the file before sizing anything from it. The second
  // count makes count * 32 wrap to exactly the one record that follows.
  const std::string huge =
      write_raw_dump("obs_huge_count.trace", std::uint64_t{1} << 40, {});
  const std::string wrapping =
      write_raw_dump("obs_wrapping_count.trace", (std::uint64_t{1} << 59) + 1,
                     {rec(10, 1, obs::EventKind::kProposeSent)});
  for (const auto& path : {huge, wrapping}) {
    std::vector<obs::TraceRecord> out;
    bool ok = true;
    EXPECT_NO_THROW(ok = obs::read_binary_dump(path, out, nullptr)) << path;
    EXPECT_FALSE(ok) << path;
    EXPECT_TRUE(out.empty()) << path;
    EXPECT_EQ(out.capacity(), 0u) << path;
  }
}

TEST(Export, TruncatedOrPaddedDumpIsRejected) {
  const std::vector<obs::TraceRecord> two = {
      rec(10, 1, obs::EventKind::kProposeSent),
      rec(20, 2, obs::EventKind::kBlameEmitted)};
  // Header claims 5, the file holds 2: truncated.
  const std::string truncated = write_raw_dump("obs_truncated.trace", 5, two);
  // Header claims 1, the file holds 2: the tail is not a record of it.
  const std::string padded = write_raw_dump("obs_padded.trace", 1, two);
  for (const auto& path : {truncated, padded}) {
    std::vector<obs::TraceRecord> out = {rec(1, 9, obs::EventKind::kRpsMerge)};
    bool ok = true;
    EXPECT_NO_THROW(ok = obs::read_binary_dump(path, out, nullptr)) << path;
    EXPECT_FALSE(ok) << path;
    // A failed read leaves what the caller already held untouched.
    ASSERT_EQ(out.size(), 1u) << path;
    EXPECT_EQ(out[0].actor, 9u);
    EXPECT_LE(out.capacity(), 2u) << path;
  }
}

TEST(Export, UnknownRecordKindIsRejected) {
  auto bad = rec(10, 1, obs::EventKind::kProposeSent);
  bad.kind = static_cast<obs::EventKind>(obs::kEventKindCount);
  const std::string path = write_raw_dump(
      "obs_bad_kind.trace", 2, {rec(5, 1, obs::EventKind::kProposeSent), bad});
  std::vector<obs::TraceRecord> out;
  EXPECT_FALSE(obs::read_binary_dump(path, out, nullptr));
  EXPECT_TRUE(out.empty());
}

TEST(Export, MergeOrdersByTimeThenActorThenKind) {
  std::vector<obs::TraceRecord> records;
  records.push_back(rec(30, 0, obs::EventKind::kProposeSent));
  records.push_back(rec(10, 5, obs::EventKind::kProposeSent));
  records.push_back(rec(10, 1, obs::EventKind::kAckReceived));
  records.push_back(rec(10, 1, obs::EventKind::kProposeSent));
  obs::sort_for_merge(records);
  EXPECT_EQ(records[0].at_us, 10);
  EXPECT_EQ(records[0].actor, 1u);
  EXPECT_EQ(records[0].kind, obs::EventKind::kProposeSent);
  EXPECT_EQ(records[1].kind, obs::EventKind::kAckReceived);
  EXPECT_EQ(records[2].actor, 5u);
  EXPECT_EQ(records[3].at_us, 30);
}

TEST(Export, ChromeTraceIsWellFormedInstantEvents) {
  std::vector<obs::TraceRecord> records;
  records.push_back(rec(1500, 3, obs::EventKind::kVerdictUnserved));
  std::ostringstream out;
  obs::write_chrome_trace(out, records);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"verdict_unserved\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"verdict\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1500"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":3"), std::string::npos);
}

// ------------------------------------- the deployment-level contracts

/// A pinned fixed-seed scenario that reliably expels a hard freerider
/// through the full §5.1 machinery: direct-verification and cross-check
/// blames accumulate, a score read observes the threshold crossing, the
/// managers vote, a commit follows.
ScenarioConfig expulsion_config() {
  auto cfg = ScenarioConfig::small(40);
  cfg.duration = seconds(24.0);
  cfg.stream.duration = seconds(22.0);
  cfg.freerider_fraction = 0.10;
  cfg.freerider_behavior = gossip::BehaviorSpec::freerider(0.6);
  cfg.expulsion_enabled = true;
  cfg.lifting.eta = -4.0;
  cfg.lifting.score_check_probability = 0.5;
  return cfg;
}

/// Ring big enough that the engine-phase firehose cannot overwrite the
/// earliest verdicts of the run (the provenance chain must be complete).
constexpr std::size_t kRingCapacity = std::size_t{1} << 20;

TEST(FlightRecorder, ArmedRecordingIsPassive) {
  const auto cfg = expulsion_config();

  Experiment disarmed(cfg);
  EXPECT_EQ(disarmed.trace_ring(), nullptr);
  disarmed.run();
  const auto want = RunDigest::of(disarmed);

  Experiment armed(cfg);
  armed.enable_trace(kRingCapacity);
  ASSERT_NE(armed.trace_ring(), nullptr);
  armed.run();
  // Recording draws nothing and schedules nothing: the armed run is
  // bit-identical to the disarmed one — which is also why the disarmed
  // fixed-seed goldens (test_determinism) needed no re-pinning.
  EXPECT_TRUE(RunDigest::of(armed) == want);

  const auto& ring = *armed.trace_ring();
  EXPECT_GT(ring.size(), 0u);
  EXPECT_EQ(ring.dropped(), 0u) << "kRingCapacity too small for the chain";

  // Every sim-side seam of this scenario shows up in the trace.
  std::uint64_t by_category[5] = {};  // engine, verdict, blame, expel, rps
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const std::string cat = obs::kind_category(ring[i].kind);
    if (cat == "engine") ++by_category[0];
    if (cat == "verdict") ++by_category[1];
    if (cat == "blame") ++by_category[2];
    if (cat == "expel") ++by_category[3];
    if (cat == "rps") ++by_category[4];
  }
  EXPECT_GT(by_category[0], 0u) << "no engine-phase records";
  EXPECT_GT(by_category[1], 0u) << "no verifier verdicts";
  EXPECT_GT(by_category[2], 0u) << "no blame records";
  EXPECT_GT(by_category[3], 0u) << "no expulsion-protocol records";
}

TEST(FlightRecorder, ResetDisarmsAndRearmsCleanly) {
  auto cfg = expulsion_config();
  cfg.duration = seconds(6.0);
  cfg.stream.duration = seconds(5.0);
  Experiment ex(cfg);
  ex.enable_trace(1 << 16);
  ex.run();
  EXPECT_GT(ex.trace_ring()->total_recorded(), 0u);

  // The measurement-hook contract: reset drops the recorder...
  ex.reset();
  EXPECT_EQ(ex.trace_ring(), nullptr);
  ex.run();  // ...and an untraced rerun records through no stale pointer
  // ...and re-arming works.
  ex.reset();
  ex.enable_trace(1 << 16);
  ex.run();
  EXPECT_GT(ex.trace_ring()->total_recorded(), 0u);
}

/// Runs the pinned scenario inside a ParallelRunner shard (lane 0 of
/// `tasks`, with differently-seeded neighbors keeping the other lanes
/// busy) and returns the victim's forensic report.
std::string report_under(unsigned threads, std::size_t tasks) {
  ParallelRunner runner(threads);
  const auto reports = runner.map<std::string>(tasks, [](std::size_t i) {
    auto cfg = expulsion_config();
    if (i != 0) cfg.seed += 1000 + i;  // neighbor lanes: different runs
    Experiment ex(cfg);
    ex.enable_trace(kRingCapacity);
    ex.run();
    if (i != 0) return std::string{};
    EXPECT_FALSE(ex.expulsions().empty()) << "scenario never expelled";
    if (ex.expulsions().empty()) return std::string{};
    return obs::explain(*ex.trace_ring(), ex.expulsions().front().victim);
  });
  return reports[0];
}

TEST(FlightRecorder, ExplainReconstructsTheExpulsionCausalChain) {
  const auto cfg = expulsion_config();
  Experiment ex(cfg);
  ex.enable_trace(kRingCapacity);
  ex.run();
  ASSERT_FALSE(ex.expulsions().empty()) << "scenario never expelled anyone";
  const NodeId victim = ex.expulsions().front().victim;
  EXPECT_TRUE(ex.is_freerider(victim));
  const auto& ring = *ex.trace_ring();
  ASSERT_EQ(ring.dropped(), 0u) << "chain truncated; raise kRingCapacity";

  // The summary walk finds every stage of the §5.1 pipeline.
  const auto s = obs::summarize(ring, victim);
  EXPECT_GT(s.verdicts, 0u);
  EXPECT_GT(s.blames_emitted_against, 0u);
  EXPECT_GT(s.blame_value_against, 0.0);
  EXPECT_GT(s.blame_rows_applied, 0u);
  EXPECT_GT(s.score_reads, 0u);
  EXPECT_GE(s.expel_requests, 1u);
  EXPECT_GE(s.expel_votes, 1u);
  EXPECT_GE(s.expel_agree_votes, 1u);
  EXPECT_GE(s.expel_commits, 1u);
  EXPECT_TRUE(s.expelled);

  // Both blame families fed the chain: direct verification (unserved
  // requests) AND at least one cross-check reason (invalid ack / fanout
  // decrease / testimony).
  bool direct = false;
  bool cross = false;
  std::int64_t first_blame_at = -1;
  std::int64_t first_request_at = -1;
  std::int64_t commit_at = -1;
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const auto& r = ring[i];
    if (r.subject != victim.value()) continue;
    if (r.kind == obs::EventKind::kBlameEmitted) {
      if (first_blame_at < 0) first_blame_at = r.at_us;
      const auto reason = static_cast<gossip::BlameReason>(r.detail);
      if (reason == gossip::BlameReason::kDirectVerification) direct = true;
      if (reason == gossip::BlameReason::kInvalidAck ||
          reason == gossip::BlameReason::kFanoutDecrease ||
          reason == gossip::BlameReason::kTestimony) {
        cross = true;
      }
    }
    if (r.kind == obs::EventKind::kExpelRequest && first_request_at < 0) {
      first_request_at = r.at_us;
    }
    if (r.kind == obs::EventKind::kExpelCommit && commit_at < 0) {
      commit_at = r.at_us;
    }
  }
  EXPECT_TRUE(direct) << "no direct-verification blame in the chain";
  EXPECT_TRUE(cross) << "no cross-check blame in the chain";
  // Causality reads off the timestamps: blame before request before
  // commit.
  ASSERT_GE(first_blame_at, 0);
  ASSERT_GE(first_request_at, 0);
  ASSERT_GE(commit_at, 0);
  EXPECT_LT(first_blame_at, first_request_at);
  EXPECT_LE(first_request_at, commit_at);

  // The rendered report narrates the same chain.
  const std::string report = obs::explain(ring, victim);
  EXPECT_NE(report.find("direct verification"), std::string::npos);
  EXPECT_NE(report.find("expulsion requested"), std::string::npos);
  EXPECT_NE(report.find("expulsion ballot"), std::string::npos);
  EXPECT_NE(report.find("committed the expulsion"), std::string::npos);
  EXPECT_NE(report.find("EXPELLED"), std::string::npos);
}

TEST(FlightRecorder, ExplainIsByteIdenticalAcrossThreadCounts) {
  const std::string reference = report_under(1, 3);
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(reference, report_under(2, 3)) << "2 threads diverged";
  EXPECT_EQ(reference, report_under(8, 3)) << "8 threads diverged";
}

}  // namespace
}  // namespace lifting
