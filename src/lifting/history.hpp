#ifndef LIFTING_LIFTING_HISTORY_HPP
#define LIFTING_LIFTING_HISTORY_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/ring_log.hpp"
#include "common/time.hpp"
#include "common/types.hpp"
#include "gossip/message.hpp"

/// Bounded accountability logs (paper §5: "every node logs a bounded-size
/// history of sent and received messages ... corresponding to the last
/// n_h = h/Tg gossip periods").
///
/// Three logs per node:
///  * SentProposalHistory — own proposals (period, partners, chunks); the
///    payload of an audit reply and the source of F_h.
///  * ReceivedProposalLog — proposals received, to answer confirm requests
///    and history polls as a witness.
///  * ConfirmAskerLog — who asked this node to confirm whose proposals;
///    polled by auditors to reconstruct F'_h (§5.3).
///
/// Storage is paged rings (entries period/time-ordered, oldest at the
/// front): the window only ever evicts from the front and appends at the
/// back. The two proposal logs keep one fixed-width key per record in a
/// RingLog and the record's variable-length ids back to back in packed
/// rings: the chunk ids in a ChunkRuns byte ring as 1-B offsets from a
/// base the key carries, the sent log's partners in a RingLog of ids. A
/// key carries its run lengths, so pruning pops a key together with its
/// runs, and a backwards walk over the keys tracks where each record's
/// runs start. A received record costs its 24-B key plus 1 B per id (4 B
/// per id for the rare run that spans more than 255 ids), and once the
/// rings reach the window's high-water size a steady-state node records
/// its whole history without heap allocation. See DESIGN.md §9.

namespace lifting {

/// Where one record's chunk ids sit in a ChunkRuns ring, carried in the
/// record's key. 8 B: the base fills the 4 B of padding a 20-B key would
/// otherwise round up to.
struct ChunkRun {
  std::uint32_t base = 0;  ///< smallest id of the run (0 for an empty run)
  std::uint32_t bytes : 31 = 0;  ///< the run's length in the byte ring
  std::uint32_t wide : 1 = 0;    ///< 4-B ids instead of 1-B offsets

  /// Ids in the run.
  [[nodiscard]] std::uint32_t count() const noexcept {
    return wide ? bytes / 4 : bytes;
  }
};

/// One byte ring holding the chunk runs of a proposal log back to back, in
/// record order. A run whose ids span at most 255 (max - min) is stored as
/// 1-B offsets from its base; a wider one keeps its ids whole, 4 B each,
/// little-endian. Either way the ids keep their original order: proposals
/// list chunks in the order the proposer picked them, and the audit
/// snapshot must reproduce it. Callers track where a run starts: the runs
/// are contiguous, so a key walk sums ChunkRun::bytes.
class ChunkRuns {
 public:
  static constexpr std::uint32_t kMaxOffset = 255;

  /// Appends `ids` as the newest run and returns its descriptor.
  [[nodiscard]] ChunkRun append(const gossip::ChunkIdList& ids) {
    ChunkRun run;
    if (ids.empty()) return run;
    const auto [lo, hi] = std::minmax_element(ids.begin(), ids.end());
    const std::uint32_t base = lo->value();
    // Captured by value: the byte stores may alias `ids`, which would make
    // a captured reference reload its data pointer per byte.
    const ChunkId* src = ids.data();
    run.base = base;
    run.wide = hi->value() - base > kMaxOffset;
    run.bytes = static_cast<std::uint32_t>(ids.size()) * (run.wide ? 4 : 1);
    if (run.wide) {
      bytes_.append_each(run.bytes, [src](std::size_t k) {
        return static_cast<std::uint8_t>(src[k / 4].value() >> (8 * (k % 4)));
      });
    } else {
      bytes_.append_each(run.bytes, [src, base](std::size_t k) {
        return static_cast<std::uint8_t>(src[k].value() - base);
      });
    }
    return run;
  }

  /// Drops the oldest run, described by `run`.
  void pop_front(const ChunkRun& run) noexcept { bytes_.pop_front(run.bytes); }

  /// Bytes held: one past the newest run's end.
  [[nodiscard]] std::size_t size() const noexcept { return bytes_.size(); }

  /// Appends the ids of the run that starts at byte `at`, in order.
  void decode(std::size_t at, const ChunkRun& run,
              gossip::ChunkIdList& out) const {
    if (run.wide) {
      for (std::uint32_t k = 0; k < run.count(); ++k) {
        out.push_back(wide_id(at, k));
      }
      return;
    }
    bytes_.spans(at, run.bytes, [&](std::span<const std::uint8_t> piece) {
      for (const std::uint8_t off : piece) {
        out.push_back(ChunkId{run.base + off});
      }
      return false;
    });
  }

  /// Is every id of `wanted` in the run that starts at byte `at`?
  [[nodiscard]] bool contains_all(std::size_t at, const ChunkRun& run,
                                  const gossip::ChunkIdList& wanted) const {
    if (run.wide) {
      return std::all_of(wanted.begin(), wanted.end(), [&](ChunkId c) {
        for (std::uint32_t k = 0; k < run.count(); ++k) {
          if (wide_id(at, k) == c) return true;
        }
        return false;
      });
    }
    return std::all_of(wanted.begin(), wanted.end(), [&](ChunkId c) {
      // Ids below the base wrap past kMaxOffset: never in the run.
      const std::uint32_t off = c.value() - run.base;
      if (off > kMaxOffset) return false;
      return bytes_.spans(at, run.bytes, [&](std::span<const std::uint8_t> s) {
        return std::find(s.begin(), s.end(), off) != s.end();
      });
    });
  }

 private:
  /// The k-th id of the wide run that starts at byte `at`.
  [[nodiscard]] ChunkId wide_id(std::size_t at, std::uint32_t k) const {
    std::uint32_t v = 0;
    for (std::size_t b = 0; b < 4; ++b) {
      v |= std::uint32_t{bytes_[at + 4 * std::size_t{k} + b]} << (8 * b);
    }
    return ChunkId{v};
  }

  RingLog<std::uint8_t> bytes_;
};

class SentProposalHistory {
 public:
  void record(TimePoint at, PeriodIndex period,
              const std::vector<NodeId>& partners,
              const gossip::ChunkIdList& chunks) {
    keys_.push_slot() = Key{at, period,
                            static_cast<std::uint32_t>(partners.size()),
                            chunks_.append(chunks)};
    partners_.append(partners.data(), partners.size());
  }

  void prune(TimePoint cutoff) {
    while (!keys_.empty() && keys_.front().at < cutoff) {
      partners_.pop_front(keys_.front().n_partners);
      chunks_.pop_front(keys_.front().chunks);
      keys_.pop_front();
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return keys_.size(); }

  /// The audit-visible records, oldest first. Materializes fresh vectors —
  /// this is the audit-reply path, not a steady-state one.
  [[nodiscard]] std::vector<gossip::HistoryProposalRecord> snapshot() const {
    std::vector<gossip::HistoryProposalRecord> out;
    out.reserve(keys_.size());
    std::size_t p = 0;  // next unread partner
    std::size_t c = 0;  // start of the next chunk run, in bytes
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      const Key& k = keys_[i];
      auto& rec = out.emplace_back();
      rec.period = k.period;
      for (std::uint32_t j = 0; j < k.n_partners; ++j) {
        rec.partners.push_back(partners_[p++]);
      }
      chunks_.decode(c, k.chunks, rec.chunks);
      c += k.chunks.bytes;
    }
    return out;
  }

 private:
  struct Key {
    TimePoint at{};
    PeriodIndex period = 0;
    std::uint32_t n_partners = 0;  // this record's run in partners_
    ChunkRun chunks;               // this record's run in chunks_
  };
  static_assert(sizeof(Key) == 24);
  RingLog<Key> keys_;
  RingLog<NodeId> partners_;
  ChunkRuns chunks_;
};

class ReceivedProposalLog {
 public:
  void record(TimePoint at, NodeId from, PeriodIndex period,
              const gossip::ChunkIdList& chunks) {
    keys_.push_slot() = Key{at, from, period, chunks_.append(chunks)};
  }

  void prune(TimePoint cutoff) {
    while (!keys_.empty() && keys_.front().at < cutoff) {
      chunks_.pop_front(keys_.front().chunks);
      keys_.pop_front();
    }
  }

  /// Already holds a proposal from `from` for `period`? A proposer sends
  /// one propose per period, so a second sighting is a transport duplicate
  /// and must not be re-recorded (the duplicate-delivery idempotence
  /// contract, tests/test_faults.cpp).
  [[nodiscard]] bool has(NodeId from, PeriodIndex period) const {
    return keys_.spans_newest_first(
        0, keys_.size(), [&](std::span<const Key> piece) {
          return std::any_of(piece.rbegin(), piece.rend(), [&](const Key& k) {
            return k.from == from && k.period == period;
          });
        });
  }

  /// Does the log contain a proposal from `subject` (not older than
  /// `since`) containing every chunk in `chunks`? This is the witness-side
  /// test behind confirm responses and history polls.
  [[nodiscard]] bool confirms(NodeId subject,
                              const gossip::ChunkIdList& chunks,
                              TimePoint since) const {
    bool confirmed = false;
    std::size_t end = chunks_.size();  // one past the current record's run
    keys_.spans_newest_first(0, keys_.size(), [&](std::span<const Key> piece) {
      for (auto k = piece.rbegin(); k != piece.rend(); ++k) {
        if (k->at < since) return true;  // entries are time-ordered
        const std::size_t begin = end - k->chunks.bytes;
        if (k->from == subject &&
            chunks_.contains_all(begin, k->chunks, chunks)) {
          confirmed = true;
          return true;
        }
        end = begin;
      }
      return false;
    });
    return confirmed;
  }

  [[nodiscard]] std::size_t size() const noexcept { return keys_.size(); }

 private:
  struct Key {
    TimePoint at{};
    NodeId from{};
    PeriodIndex period = 0;
    ChunkRun chunks;  // this record's run in chunks_
  };
  static_assert(sizeof(Key) == 24);

  RingLog<Key> keys_;
  ChunkRuns chunks_;
};

class ConfirmAskerLog {
 public:
  void record(TimePoint at, NodeId subject, NodeId asker) {
    Entry& e = entries_.push_slot();
    e.at = at;
    e.subject = subject;
    e.asker = asker;
  }

  void prune(TimePoint cutoff) {
    while (!entries_.empty() && entries_.front().at < cutoff) {
      entries_.pop_front();
    }
  }

  /// All nodes that asked about `subject` within the log, with
  /// multiplicity — the witness's contribution to F'_h.
  [[nodiscard]] std::vector<NodeId> askers_about(NodeId subject) const {
    std::vector<NodeId> out;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].subject == subject) out.push_back(entries_[i].asker);
    }
    return out;
  }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

 private:
  struct Entry {
    TimePoint at{};
    NodeId subject{};
    NodeId asker{};
  };
  RingLog<Entry> entries_;
};

}  // namespace lifting

#endif  // LIFTING_LIFTING_HISTORY_HPP
