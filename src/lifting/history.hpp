#ifndef LIFTING_LIFTING_HISTORY_HPP
#define LIFTING_LIFTING_HISTORY_HPP

#include <algorithm>
#include <cstdint>
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
/// Storage is flat rings (entries period/time-ordered, oldest at the
/// front): the window only ever evicts from the front and appends at the
/// back. The two proposal logs keep one fixed-width key per record in a
/// RingLog and the record's variable-length ids back to back in a packed
/// RingLog of ids (chunks; partners for the sent log). A key carries its
/// run lengths, so pruning pops a key together with its runs, and a
/// backwards walk over the keys tracks where each record's runs start. A
/// record costs its 24-B key plus 4 B per id, and once the rings reach the
/// window's high-water size a steady-state node records its whole history
/// without heap allocation. See DESIGN.md §9.

namespace lifting {

class SentProposalHistory {
 public:
  void record(TimePoint at, PeriodIndex period,
              const std::vector<NodeId>& partners,
              const gossip::ChunkIdList& chunks) {
    keys_.push_slot() = Key{at, period,
                            static_cast<std::uint32_t>(partners.size()),
                            static_cast<std::uint32_t>(chunks.size())};
    partners_.append(partners.data(), partners.size());
    chunks_.append(chunks.data(), chunks.size());
  }

  void prune(TimePoint cutoff) {
    while (!keys_.empty() && keys_.front().at < cutoff) {
      partners_.pop_front(keys_.front().n_partners);
      chunks_.pop_front(keys_.front().n_chunks);
      keys_.pop_front();
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return keys_.size(); }

  /// The audit-visible records, oldest first. Materializes fresh vectors —
  /// this is the audit-reply path, not a steady-state one.
  [[nodiscard]] std::vector<gossip::HistoryProposalRecord> snapshot() const {
    std::vector<gossip::HistoryProposalRecord> out;
    out.reserve(keys_.size());
    std::size_t p = 0;  // next unread id of each payload ring
    std::size_t c = 0;
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      const Key& k = keys_[i];
      auto& rec = out.emplace_back();
      rec.period = k.period;
      for (std::uint32_t j = 0; j < k.n_partners; ++j) {
        rec.partners.push_back(partners_[p++]);
      }
      for (std::uint32_t j = 0; j < k.n_chunks; ++j) {
        rec.chunks.push_back(chunks_[c++]);
      }
    }
    return out;
  }

 private:
  struct Key {
    TimePoint at{};
    PeriodIndex period = 0;
    std::uint32_t n_partners = 0;  // this record's run in partners_
    std::uint32_t n_chunks = 0;    // this record's run in chunks_
  };
  RingLog<Key> keys_;
  RingLog<NodeId> partners_;
  RingLog<ChunkId> chunks_;
};

class ReceivedProposalLog {
 public:
  void record(TimePoint at, NodeId from, PeriodIndex period,
              const gossip::ChunkIdList& chunks) {
    keys_.push_slot() =
        Key{at, from, period, static_cast<std::uint32_t>(chunks.size())};
    chunks_.append(chunks.data(), chunks.size());
  }

  void prune(TimePoint cutoff) {
    while (!keys_.empty() && keys_.front().at < cutoff) {
      chunks_.pop_front(keys_.front().n_chunks);
      keys_.pop_front();
    }
  }

  /// Already holds a proposal from `from` for `period`? A proposer sends
  /// one propose per period, so a second sighting is a transport duplicate
  /// and must not be re-recorded (the duplicate-delivery idempotence
  /// contract, tests/test_faults.cpp).
  [[nodiscard]] bool has(NodeId from, PeriodIndex period) const {
    const auto keys = keys_.segments(0, keys_.size());
    const auto same = [&](const Key& k) {
      return k.from == from && k.period == period;
    };
    return std::any_of(keys.second.rbegin(), keys.second.rend(), same) ||
           std::any_of(keys.first.rbegin(), keys.first.rend(), same);
  }

  /// Does the log contain a proposal from `subject` (not older than
  /// `since`) containing every chunk in `chunks`? This is the witness-side
  /// test behind confirm responses and history polls.
  [[nodiscard]] bool confirms(NodeId subject,
                              const gossip::ChunkIdList& chunks,
                              TimePoint since) const {
    std::size_t end = chunks_.size();  // one past the current record's run
    const auto keys = keys_.segments(0, keys_.size());
    for (const auto piece : {keys.second, keys.first}) {  // newest first
      for (auto k = piece.rbegin(); k != piece.rend(); ++k) {
        if (k->at < since) return false;  // entries are time-ordered
        const std::size_t begin = end - k->n_chunks;
        if (k->from == subject && contains_all(begin, end, chunks)) {
          return true;
        }
        end = begin;
      }
    }
    return false;
  }

  [[nodiscard]] std::size_t size() const noexcept { return keys_.size(); }

 private:
  struct Key {
    TimePoint at{};
    NodeId from{};
    PeriodIndex period = 0;
    std::uint32_t n_chunks = 0;  // this record's run in chunks_
  };

  /// Is every id of `wanted` in the run chunks_[begin, end)?
  [[nodiscard]] bool contains_all(std::size_t begin, std::size_t end,
                                  const gossip::ChunkIdList& wanted) const {
    const auto run = chunks_.segments(begin, end - begin);
    return std::all_of(wanted.begin(), wanted.end(), [&](ChunkId c) {
      return std::find(run.first.begin(), run.first.end(), c) !=
                 run.first.end() ||
             std::find(run.second.begin(), run.second.end(), c) !=
                 run.second.end();
    });
  }

  RingLog<Key> keys_;
  RingLog<ChunkId> chunks_;
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
