#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/ring_log.hpp"
#include "common/rng.hpp"
#include "lifting/history.hpp"
#include "net/codec.hpp"

namespace lifting {
namespace {

TEST(SentProposalHistory, RecordsAndSnapshots) {
  SentProposalHistory history;
  history.record(kSimEpoch + seconds(1.0), 1, {NodeId{2}, NodeId{3}},
                 {ChunkId{10}});
  history.record(kSimEpoch + seconds(2.0), 2, {NodeId{4}}, {ChunkId{11}});
  EXPECT_EQ(history.size(), 2u);
  const auto snap = history.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].period, 1u);
  EXPECT_EQ(snap[0].partners.size(), 2u);
  EXPECT_EQ(snap[1].chunks, gossip::ChunkIdList{ChunkId{11}});
}

TEST(SentProposalHistory, PruneDropsOldEntriesOnly) {
  SentProposalHistory history;
  for (int i = 0; i < 10; ++i) {
    history.record(kSimEpoch + seconds(static_cast<double>(i)), i,
                   {NodeId{1}}, {ChunkId{static_cast<std::uint32_t>(i)}});
  }
  history.prune(kSimEpoch + seconds(5.0));
  EXPECT_EQ(history.size(), 5u);  // entries at t=5..9 survive
  EXPECT_EQ(history.snapshot().front().period, 5u);
}

TEST(ReceivedProposalLog, ConfirmsContainedChunksWithinWindow) {
  ReceivedProposalLog log;
  log.record(kSimEpoch + seconds(1.0), NodeId{7}, 3,
             {ChunkId{1}, ChunkId{2}, ChunkId{3}});
  // Subset of the proposal's chunks: confirmed.
  EXPECT_TRUE(log.confirms(NodeId{7}, {ChunkId{1}, ChunkId{3}}, kSimEpoch));
  // Chunk never proposed: denied.
  EXPECT_FALSE(log.confirms(NodeId{7}, {ChunkId{9}}, kSimEpoch));
  // Wrong proposer: denied.
  EXPECT_FALSE(log.confirms(NodeId{8}, {ChunkId{1}}, kSimEpoch));
  // Entry older than the window: denied.
  EXPECT_FALSE(
      log.confirms(NodeId{7}, {ChunkId{1}}, kSimEpoch + seconds(2.0)));
}

TEST(ReceivedProposalLog, ConfirmSearchesAcrossMultipleProposals) {
  ReceivedProposalLog log;
  log.record(kSimEpoch + seconds(1.0), NodeId{7}, 1, {ChunkId{1}});
  log.record(kSimEpoch + seconds(2.0), NodeId{7}, 2, {ChunkId{2}});
  EXPECT_TRUE(log.confirms(NodeId{7}, {ChunkId{1}}, kSimEpoch));
  EXPECT_TRUE(log.confirms(NodeId{7}, {ChunkId{2}}, kSimEpoch));
  // Chunks split across two proposals: no single proposal contains both.
  EXPECT_FALSE(log.confirms(NodeId{7}, {ChunkId{1}, ChunkId{2}}, kSimEpoch));
}

TEST(ReceivedProposalLog, PruneRespectsTimeOrder) {
  ReceivedProposalLog log;
  log.record(kSimEpoch + seconds(1.0), NodeId{7}, 1, {ChunkId{1}});
  log.record(kSimEpoch + seconds(5.0), NodeId{7}, 2, {ChunkId{2}});
  log.prune(kSimEpoch + seconds(3.0));
  EXPECT_EQ(log.size(), 1u);
  EXPECT_FALSE(log.confirms(NodeId{7}, {ChunkId{1}}, kSimEpoch));
  EXPECT_TRUE(log.confirms(NodeId{7}, {ChunkId{2}}, kSimEpoch));
}

TEST(ConfirmAskerLog, CollectsAskersWithMultiplicity) {
  ConfirmAskerLog log;
  log.record(kSimEpoch, NodeId{5}, NodeId{1});
  log.record(kSimEpoch, NodeId{5}, NodeId{1});
  log.record(kSimEpoch, NodeId{5}, NodeId{2});
  log.record(kSimEpoch, NodeId{6}, NodeId{3});  // other subject
  const auto askers = log.askers_about(NodeId{5});
  ASSERT_EQ(askers.size(), 3u);
  EXPECT_EQ(std::count(askers.begin(), askers.end(), NodeId{1}), 2);
  EXPECT_EQ(std::count(askers.begin(), askers.end(), NodeId{2}), 1);
  EXPECT_TRUE(log.askers_about(NodeId{9}).empty());
}

TEST(RingLog, WrapAroundKeepsFifoOrderAcrossGrowth) {
  RingLog<int> ring;
  int next = 0;
  // Interleave pushes and pops so the live window straddles the physical
  // end of the buffer repeatedly while the ring grows past its initial
  // capacity.
  std::vector<int> expect_front;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 3; ++i) ring.push_slot() = next++;
    ring.pop_front();
  }
  // 150 pushed, 50 popped: [50, 150) survive, oldest first.
  ASSERT_EQ(ring.size(), 100u);
  EXPECT_EQ(ring.front(), 50);
  EXPECT_EQ(ring.back(), 149);
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring[i], 50 + static_cast<int>(i));
  }
}

TEST(RingLog, RecycledSlotsKeepPayloadCapacity) {
  RingLog<gossip::ChunkIdList> ring;
  std::vector<ChunkId> big;
  for (std::uint32_t i = 0; i < 100; ++i) big.push_back(ChunkId{i});
  // Fill past the inline capacity so the slot's list spills to the heap.
  ring.push_slot().assign(big.begin(), big.end());
  const auto spilled = ring.front().capacity();
  ASSERT_GE(spilled, 100u);
  ring.pop_front();
  // pop_front never destroys the slot; the next wrap-around push_slot
  // hands the same storage back (refill with assign, never operator=).
  for (std::size_t i = 0; i + 1 < ring.capacity(); ++i) {
    ring.push_slot().assign(big.begin(), big.begin() + 1);
    ring.pop_front();
  }
  gossip::ChunkIdList& recycled = ring.push_slot();
  EXPECT_GE(recycled.capacity(), spilled);
}

TEST(SentProposalHistory, RingRetentionUnderPeriodicPruning) {
  // Steady-state shape: one record per period, pruned to a fixed window —
  // the ring wraps many times and the window contents stay exact.
  SentProposalHistory history;
  const auto period = seconds(0.5);
  const auto window = seconds(5.0);
  for (int p = 0; p < 200; ++p) {
    const TimePoint now = kSimEpoch + p * period;
    history.record(now, static_cast<PeriodIndex>(p), {NodeId{1}, NodeId{2}},
                   {ChunkId{static_cast<std::uint32_t>(p)}});
    const TimePoint cutoff =
        now - std::min(now.time_since_epoch(), window);
    history.prune(cutoff);
    ASSERT_LE(history.size(), 11u);  // 5 s / 0.5 s + the fresh record
  }
  const auto snap = history.snapshot();
  ASSERT_EQ(snap.size(), 11u);
  EXPECT_EQ(snap.front().period, 189u);
  EXPECT_EQ(snap.back().period, 199u);
  EXPECT_EQ(snap.back().chunks, gossip::ChunkIdList{ChunkId{199}});
}

TEST(ReceivedProposalLog, WrapAroundConfirmsStayExact) {
  ReceivedProposalLog log;
  const auto period = seconds(0.5);
  for (int p = 0; p < 300; ++p) {
    const TimePoint now = kSimEpoch + p * period;
    log.record(now, NodeId{static_cast<std::uint32_t>(p % 5)},
               static_cast<PeriodIndex>(p),
               {ChunkId{static_cast<std::uint32_t>(p)}});
    log.prune(now - std::min(now.time_since_epoch(), seconds(2.0)));
  }
  // The prune cutoff trails the last record by 2 s, so the window is
  // [t=147.5, t=149.5]: periods 295..299 survive.
  EXPECT_FALSE(log.confirms(NodeId{0}, {ChunkId{290}}, kSimEpoch));
  EXPECT_TRUE(log.confirms(NodeId{295 % 5}, {ChunkId{295}}, kSimEpoch));
  EXPECT_TRUE(log.confirms(NodeId{299 % 5}, {ChunkId{299}}, kSimEpoch));
  // Wrong proposer for a surviving chunk: still denied after wraps.
  EXPECT_FALSE(log.confirms(NodeId{(295 % 5) + 1}, {ChunkId{295}},
                            kSimEpoch));
}

TEST(ConfirmAskerLog, PruneDropsOldAskers) {
  ConfirmAskerLog log;
  log.record(kSimEpoch + seconds(1.0), NodeId{5}, NodeId{1});
  log.record(kSimEpoch + seconds(4.0), NodeId{5}, NodeId{2});
  log.prune(kSimEpoch + seconds(2.0));
  const auto askers = log.askers_about(NodeId{5});
  ASSERT_EQ(askers.size(), 1u);
  EXPECT_EQ(askers[0], NodeId{2});
}

TEST(RingLog, BulkAppendPopAndSegmentsKeepOrderAcrossWrapAndGrowth) {
  RingLog<std::uint32_t> ring;
  std::vector<std::uint32_t> model;  // the live window, oldest first
  Pcg32 rng{77};
  std::uint32_t next = 0;
  for (int step = 0; step < 400; ++step) {
    // Runs of 0..40 ids: some wider than the ring's current capacity, so
    // one append both grows the ring and straddles its physical end.
    std::vector<std::uint32_t> run(rng.below(41));
    for (auto& v : run) v = next++;
    ring.append(run.data(), run.size());
    model.insert(model.end(), run.begin(), run.end());
    const std::size_t drop = rng.below(static_cast<std::uint32_t>(
        std::min<std::size_t>(model.size(), 60) + 1));
    ring.pop_front(drop);
    model.erase(model.begin(), model.begin() + static_cast<std::ptrdiff_t>(drop));
    ASSERT_EQ(ring.size(), model.size());
    for (std::size_t i = 0; i < model.size(); ++i) ASSERT_EQ(ring[i], model[i]);
    // Any sub-run, read as its contiguous pieces in either direction.
    const auto size = static_cast<std::uint32_t>(model.size());
    const std::uint32_t at = rng.below(size + 1);
    const std::uint32_t n = rng.below(size - at + 1);
    const std::vector<std::uint32_t> want(model.begin() + at,
                                          model.begin() + at + n);
    std::vector<std::uint32_t> joined;
    EXPECT_FALSE(ring.spans(at, n, [&](std::span<const std::uint32_t> s) {
      joined.insert(joined.end(), s.begin(), s.end());
      return false;
    }));
    ASSERT_EQ(joined, want);
    joined.clear();
    ring.spans_newest_first(at, n, [&](std::span<const std::uint32_t> s) {
      joined.insert(joined.begin(), s.begin(), s.end());
      return false;
    });
    ASSERT_EQ(joined, want);
  }
}

TEST(RingLog, PushPopAcrossPagesKeepsOrderAndGrowsByPages) {
  RingLog<std::uint64_t> ring;  // 64 entries per 512-B page
  constexpr std::size_t kPage = RingLog<std::uint64_t>::kPageEntries;
  std::uint64_t next = 0;
  std::uint64_t front = 0;
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 23; ++i) ring.push_slot() = next++;
    for (int i = 0; i < 9; ++i) {
      ASSERT_EQ(ring.front(), front++);
      ring.pop_front();
    }
    // Growth takes one page at a time: never more than one page beyond
    // what the live span (which starts inside the first page) needs.
    ASSERT_EQ(ring.capacity() % kPage, 0u);
    ASSERT_LT(ring.capacity(), ring.size() + 2 * kPage);
  }
  ASSERT_EQ(ring.size(), static_cast<std::size_t>(next - front));
  for (std::size_t i = 0; i < ring.size(); ++i) ASSERT_EQ(ring[i], front + i);
}

TEST(RingLog, SlidingWindowRotatesPagesWithoutGrowing) {
  // Periodic pruning to a fixed window: drained front pages rotate to the
  // back, so once the window is full the ring never takes another page.
  RingLog<std::uint32_t> ring;
  std::uint32_t next = 0;
  std::size_t warmed = 0;
  for (int period = 0; period < 600; ++period) {
    for (int i = 0; i < 37; ++i) ring.push_slot() = next++;
    if (ring.size() > 400) ring.pop_front(ring.size() - 400);
    if (period == 50) warmed = ring.capacity();
    if (period > 50) ASSERT_EQ(ring.capacity(), warmed);
    ASSERT_EQ(ring.front(), next - static_cast<std::uint32_t>(ring.size()));
    ASSERT_EQ(ring.back(), next - 1);
  }
  EXPECT_GT(warmed, 400u);
}

TEST(RingLog, RunSpanningSeveralPagesReadsBackInOrder) {
  RingLog<std::uint8_t> ring;  // 512 entries per page
  constexpr std::size_t kPage = RingLog<std::uint8_t>::kPageEntries;
  std::vector<std::uint8_t> model;
  for (std::size_t i = 0; i < kPage / 2; ++i) model.push_back(0);
  ring.append(model.data(), model.size());  // start mid-page
  std::vector<std::uint8_t> run(3 * kPage + 100);
  for (std::size_t i = 0; i < run.size(); ++i) {
    run[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  ring.append(run.data(), run.size());
  model.insert(model.end(), run.begin(), run.end());
  ring.pop_front(kPage / 2 + 10);  // drains into the run's first page
  model.erase(model.begin(),
              model.begin() + static_cast<std::ptrdiff_t>(kPage / 2 + 10));

  std::vector<std::size_t> lengths;
  std::vector<std::uint8_t> joined;
  ring.spans(0, ring.size(), [&](std::span<const std::uint8_t> s) {
    lengths.push_back(s.size());
    joined.insert(joined.end(), s.begin(), s.end());
    return false;
  });
  EXPECT_EQ(joined, model);
  ASSERT_EQ(lengths.size(), 4u);  // the run covers four pages
  EXPECT_EQ(lengths.front(), kPage / 2 - 10);
  // Newest first, stopping early: the visitor sees the last page first.
  std::size_t visits = 0;
  EXPECT_TRUE(ring.spans_newest_first(0, ring.size(),
                                      [&](std::span<const std::uint8_t> s) {
                                        ++visits;
                                        return s.back() == model.back();
                                      }));
  EXPECT_EQ(visits, 1u);
}

// ---------------------------------------------------------------------------
// Differential test: the packed logs (keys + id rings) against a naive
// reference that stores every record whole, driven by the same seeded
// operation sequence. Every answer and every audit snapshot must agree.

/// One record stored whole — the layout the packed logs replace.
struct NaiveRecord {
  TimePoint at{};
  NodeId from{};
  PeriodIndex period = 0;
  std::vector<NodeId> partners;
  std::vector<ChunkId> chunks;
};

/// The reference semantics, written the obvious way over full records.
struct NaiveLog {
  std::vector<NaiveRecord> records;

  void prune(TimePoint cutoff) {
    const auto keep = std::find_if(
        records.begin(), records.end(),
        [&](const NaiveRecord& r) { return !(r.at < cutoff); });
    records.erase(records.begin(), keep);
  }
  [[nodiscard]] bool has(NodeId from, PeriodIndex period) const {
    return std::any_of(records.begin(), records.end(),
                       [&](const NaiveRecord& r) {
                         return r.from == from && r.period == period;
                       });
  }
  [[nodiscard]] bool confirms(NodeId subject,
                              const gossip::ChunkIdList& chunks,
                              TimePoint since) const {
    for (const auto& r : records) {
      if (r.at < since || r.from != subject) continue;
      const bool all = std::all_of(chunks.begin(), chunks.end(), [&](ChunkId c) {
        return std::find(r.chunks.begin(), r.chunks.end(), c) != r.chunks.end();
      });
      if (all) return true;
    }
    return false;
  }
  [[nodiscard]] std::vector<gossip::HistoryProposalRecord> snapshot() const {
    std::vector<gossip::HistoryProposalRecord> out;
    for (const auto& r : records) {
      out.push_back(gossip::HistoryProposalRecord{
          r.period, r.partners,
          gossip::ChunkIdList(r.chunks.begin(), r.chunks.end())});
    }
    return out;
  }
};

/// A chunk list of a shape the logs must store exactly: empty, short,
/// around the inline capacity or well past it, unsorted, with repeats, and
/// with an id span (max - min) up to, just past or far past the 255 that
/// 1-B offsets cover, based at 0, anywhere, or ending at 2^32 - 1.
gossip::ChunkIdList random_chunks(Pcg32& rng) {
  static constexpr std::uint32_t kLengths[] = {0,  1,  2,  3,  7,
                                               28, 31, 32, 33, 70};
  static constexpr std::uint32_t kSpans[] = {0,     1,     89,    254,
                                             255,   256,   257,   65535,
                                             65536, 0xFFFFFFFFU};
  const std::uint32_t n = kLengths[rng.below(std::size(kLengths))];
  const std::uint32_t span = kSpans[rng.below(std::size(kSpans))];
  const std::uint32_t room = 0xFFFFFFFFU - span;  // the largest base
  std::uint32_t base = 0;
  switch (rng.below(3)) {
    case 0: base = 0; break;
    case 1: base = room; break;
    default: base = room == 0xFFFFFFFFU ? rng.next() : rng.below(room + 1);
  }
  const auto offset = [&] {
    return span == 0xFFFFFFFFU ? rng.next() : rng.below(span + 1);
  };
  gossip::ChunkIdList out;
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(ChunkId{base + offset()});
  if (n >= 2) {  // pin the span exactly, at random positions
    const std::uint32_t lo = rng.below(n);
    const std::uint32_t hi = (lo + 1 + rng.below(n - 1)) % n;
    out[lo] = ChunkId{base};
    out[hi] = ChunkId{base + span};
  }
  return out;
}

/// A confirm query: a (possibly empty) subset of a logged record's chunks
/// in shuffled order, sometimes with an id it never held or one just
/// outside (or at the edge of) the record's offset range.
gossip::ChunkIdList random_query(Pcg32& rng, const NaiveLog& ref) {
  gossip::ChunkIdList out;
  if (ref.records.empty() || rng.below(4) == 0) {
    for (std::uint32_t i = rng.below(4); i > 0; --i) {
      out.push_back(ChunkId{rng.below(90)});
    }
    return out;
  }
  const auto& r = ref.records[rng.below(
      static_cast<std::uint32_t>(ref.records.size()))];
  for (const auto c : r.chunks) {
    if (rng.below(3) == 0) out.push_back(c);
  }
  std::reverse(out.begin(), out.end());
  if (rng.below(3) == 0) out.push_back(ChunkId{90 + rng.below(4)});
  if (!r.chunks.empty() && rng.below(3) == 0) {
    const auto [lo, hi] = std::minmax_element(r.chunks.begin(), r.chunks.end());
    const std::uint32_t near[] = {lo->value() - 1, lo->value() + 255,
                                  lo->value() + 256, hi->value() + 1};
    out.push_back(ChunkId{near[rng.below(std::size(near))]});
  }
  return out;
}

/// The snapshots as the audit reply carries them on the wire.
std::vector<std::uint8_t> audit_bytes(
    std::vector<gossip::HistoryProposalRecord> records) {
  return net::encode(gossip::AuditHistoryMsg{1, std::move(records)});
}

TEST(PackedHistoryDifferential, MatchesNaiveLogsOnRandomSequences) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(seed);
    Pcg32 rng{seed};
    ReceivedProposalLog received;
    SentProposalHistory sent;
    NaiveLog ref_received;
    NaiveLog ref_sent;
    TimePoint now = kSimEpoch;
    PeriodIndex period = 0;
    for (int op = 0; op < 1500; ++op) {
      // Time never goes backwards; equal timestamps are allowed.
      now += microseconds(rng.below(3) * rng.below(400'000));
      // Periods mostly advance, but arrive out of order and repeat too.
      period += rng.below(3);
      const PeriodIndex p =
          period > 4 && rng.below(4) == 0 ? period - rng.below(5) : period;
      switch (rng.below(8)) {
        case 0:
        case 1:
        case 2: {  // a received proposal
          const NodeId from{rng.below(6)};
          const auto chunks = random_chunks(rng);
          received.record(now, from, p, chunks);
          ref_received.records.push_back(
              {now, from, p, {}, {chunks.begin(), chunks.end()}});
          break;
        }
        case 3: {  // a sent proposal
          std::vector<NodeId> partners(rng.below(12));
          for (auto& n : partners) n = NodeId{rng.below(50)};
          const auto chunks = random_chunks(rng);
          sent.record(now, p, partners, chunks);
          ref_sent.records.push_back(
              {now, NodeId{}, p, partners, {chunks.begin(), chunks.end()}});
          break;
        }
        case 4: {  // the window slides (occasionally past everything)
          const auto window = microseconds(rng.below(8) == 0
                                               ? 0
                                               : rng.below(6'000'000));
          const TimePoint cutoff =
              now - std::min(now.time_since_epoch(), window);
          received.prune(cutoff);
          sent.prune(cutoff);
          ref_received.prune(cutoff);
          ref_sent.prune(cutoff);
          break;
        }
        case 5: {  // duplicate guard: logged keys and near misses
          NodeId from{rng.below(7)};
          PeriodIndex q = p + rng.below(3) - 1;
          if (!ref_received.records.empty() && rng.below(2) == 0) {
            const auto& r = ref_received.records[rng.below(
                static_cast<std::uint32_t>(ref_received.records.size()))];
            from = r.from;
            q = r.period;
          }
          ASSERT_EQ(received.has(from, q), ref_received.has(from, q));
          break;
        }
        case 6: {  // witness test, with and without a lower time bound
          const NodeId subject{rng.below(7)};
          const auto query = random_query(rng, ref_received);
          const TimePoint since =
              rng.below(2) == 0
                  ? kSimEpoch
                  : now - std::min(now.time_since_epoch(),
                                   microseconds(rng.below(4'000'000)));
          ASSERT_EQ(received.confirms(subject, query, since),
                    ref_received.confirms(subject, query, since));
          if (!ref_received.records.empty()) {
            const auto& r = ref_received.records.back();
            const gossip::ChunkIdList all(r.chunks.begin(), r.chunks.end());
            ASSERT_TRUE(received.confirms(r.from, all, r.at));
          }
          break;
        }
        default: {  // the audit reply
          ASSERT_EQ(audit_bytes(sent.snapshot()),
                    audit_bytes(ref_sent.snapshot()));
          break;
        }
      }
      ASSERT_EQ(received.size(), ref_received.records.size());
      ASSERT_EQ(sent.size(), ref_sent.records.size());
    }
    const auto snap = sent.snapshot();
    const auto want = ref_sent.snapshot();
    ASSERT_EQ(snap.size(), want.size());
    for (std::size_t i = 0; i < snap.size(); ++i) {
      EXPECT_EQ(snap[i].period, want[i].period);
      EXPECT_EQ(snap[i].partners, want[i].partners);
      EXPECT_EQ(snap[i].chunks, want[i].chunks);
    }
  }
}

TEST(PackedHistoryDifferential, OffsetEncodingEdgeCases) {
  constexpr std::uint32_t kTop = 0xFFFFFFFFU;
  struct Case {
    std::vector<std::uint32_t> ids;
    bool wide;
  };
  const Case cases[] = {
      {{}, false},
      {{5}, false},
      {{7, 7, 7}, false},                          // duplicates
      {{300, 45, 299, 46}, false},                 // unsorted
      {{255, 0}, false},                           // span exactly 255
      {{0, 256}, true},                            // span 256
      {{kTop, kTop - 255, kTop - 1}, false},       // near 2^32 - 1
      {{kTop - 256, kTop}, true},
      {{kTop, 0, 17}, true},                       // the widest span
      {{70'000, 4, 65'539}, true},
  };
  ChunkRuns runs;
  SentProposalHistory sent;
  ReceivedProposalLog received;
  std::vector<gossip::HistoryProposalRecord> want;
  PeriodIndex period = 0;
  for (const auto& c : cases) {
    SCOPED_TRACE(::testing::PrintToString(c.ids));
    gossip::ChunkIdList ids;
    for (const auto v : c.ids) ids.push_back(ChunkId{v});
    const std::size_t before = runs.size();
    const ChunkRun run = runs.append(ids);
    EXPECT_EQ(run.count(), ids.size());
    EXPECT_EQ(static_cast<bool>(run.wide), c.wide);
    EXPECT_EQ(runs.size() - before, (c.wide ? 4 : 1) * ids.size());
    gossip::ChunkIdList back;
    runs.decode(before, run, back);
    EXPECT_EQ(back, ids);

    const TimePoint at = kSimEpoch + seconds(static_cast<double>(period));
    sent.record(at, period, {NodeId{1}}, ids);
    received.record(at, NodeId{2}, period, ids);
    want.push_back({period, {NodeId{1}}, ids});
    EXPECT_TRUE(received.confirms(NodeId{2}, ids, at));
    if (!ids.empty()) {
      const auto [lo, hi] = std::minmax_element(c.ids.begin(), c.ids.end());
      for (const std::uint32_t miss : {*lo - 1, *hi + 1, *lo + 256}) {
        if (std::find(c.ids.begin(), c.ids.end(), miss) != c.ids.end()) {
          continue;
        }
        EXPECT_FALSE(received.confirms(NodeId{2}, {ChunkId{miss}}, at))
            << miss;
      }
    }
    ++period;
  }
  EXPECT_EQ(audit_bytes(sent.snapshot()), audit_bytes(want));
}

}  // namespace
}  // namespace lifting
