#include "gossip/message.hpp"

#include <iterator>

namespace lifting::gossip {

namespace {

constexpr std::size_t kUdpHeader = 28;  // IP (20) + UDP (8)
constexpr std::size_t kTcpFraming = 40; // IP + TCP, amortized per message
constexpr std::size_t kTag = 1;         // message type tag
constexpr std::size_t kNode = 4;
constexpr std::size_t kChunk = 8;
constexpr std::size_t kPeriod = 4;
constexpr std::size_t kCount = 2;
constexpr std::size_t kScore = 8;

struct SizeVisitor {
  std::size_t operator()(const ProposeMsg& m) const {
    return kUdpHeader + kTag + kPeriod + kCount + kChunk * m.chunks.size();
  }
  std::size_t operator()(const RequestMsg& m) const {
    return kUdpHeader + kTag + kPeriod + kCount + kChunk * m.chunks.size();
  }
  std::size_t operator()(const ServeMsg& m) const {
    return kUdpHeader + kTag + kPeriod + kChunk + kNode + m.payload_bytes;
  }
  std::size_t operator()(const AckMsg& m) const {
    return kUdpHeader + kTag + kPeriod + kCount + kChunk * m.chunks.size() +
           kCount + kNode * m.partners.size();
  }
  std::size_t operator()(const ConfirmReqMsg& m) const {
    return kUdpHeader + kTag + kNode + kPeriod + kCount +
           kChunk * m.chunks.size();
  }
  std::size_t operator()(const ConfirmRespMsg&) const {
    return kUdpHeader + kTag + kNode + kPeriod + 1;
  }
  std::size_t operator()(const BlameMsg&) const {
    return kUdpHeader + kTag + kNode + kScore + 1;
  }
  std::size_t operator()(const ScoreQueryMsg&) const {
    return kUdpHeader + kTag + kNode + 4;
  }
  std::size_t operator()(const ScoreReplyMsg&) const {
    return kUdpHeader + kTag + kNode + 4 + kScore + 1;
  }
  std::size_t operator()(const ExpelRequestMsg&) const {
    return kUdpHeader + kTag + kNode + kScore;
  }
  std::size_t operator()(const ExpelVoteMsg&) const {
    return kUdpHeader + kTag + kNode + 1;
  }
  std::size_t operator()(const ExpelCommitMsg&) const {
    return kUdpHeader + kTag + kNode + 1;
  }
  std::size_t operator()(const AuditRequestMsg&) const {
    return kTcpFraming + kTag + 4;
  }
  std::size_t operator()(const AuditHistoryMsg& m) const {
    std::size_t bytes = kTcpFraming + kTag + 4 + kCount;
    for (const auto& rec : m.proposals) {
      bytes += kPeriod + kCount + kNode * rec.partners.size() + kCount +
               kChunk * rec.chunks.size();
    }
    return bytes;
  }
  std::size_t operator()(const HistoryPollMsg& m) const {
    std::size_t bytes = kTcpFraming + kTag + 4 + kNode + kCount;
    for (const auto& rec : m.claims) {
      bytes += kPeriod + kCount + kChunk * rec.chunks.size();
    }
    return bytes;
  }
  std::size_t operator()(const HistoryPollRespMsg& m) const {
    return kTcpFraming + kTag + 4 + kNode + 4 + 4 + kCount +
           kNode * m.confirm_askers.size();
  }
  std::size_t operator()(const AuditAckMsg&) const {
    // Channel-level ack of the reliable-UDP audit mode: a real datagram,
    // never part of the modeled TCP stream.
    return kUdpHeader + kTag + 1 + 4 + kNode;
  }
  std::size_t operator()(const RpsShuffleMsg& m) const {
    // Substrate shuffle exchange: one UDP datagram; entries are
    // (id, age, epoch, flags) = 13 B each.
    return kUdpHeader + kTag + 4 + 1 + kCount +
           (kNode + 4 + 4 + 1) * m.entries.size();
  }
};

/// Exact codec payload length (net/codec.cpp layouts, kept in lockstep by
/// tests/test_faults.cpp round-trip size pins): tag 1 B, node 4 B, chunk
/// 8 B, u32 4 B, list count 2 B.
struct DatagramSizeVisitor {
  static std::size_t records(
      const std::vector<HistoryProposalRecord>& recs) {
    std::size_t bytes = kCount;
    for (const auto& rec : recs) {
      bytes += kPeriod + kCount + kNode * rec.partners.size() + kCount +
               kChunk * rec.chunks.size();
    }
    return bytes;
  }
  std::size_t operator()(const ProposeMsg& m) const {
    return kTag + kPeriod + kCount + kChunk * m.chunks.size();
  }
  std::size_t operator()(const RequestMsg& m) const {
    return kTag + kPeriod + kCount + kChunk * m.chunks.size();
  }
  std::size_t operator()(const ServeMsg& m) const {
    return kTag + kPeriod + kChunk + 4 + kNode + m.payload_bytes;
  }
  std::size_t operator()(const AckMsg& m) const {
    return kTag + kPeriod + kCount + kChunk * m.chunks.size() + kCount +
           kNode * m.partners.size();
  }
  std::size_t operator()(const ConfirmReqMsg& m) const {
    return kTag + kNode + kPeriod + kCount + kChunk * m.chunks.size();
  }
  std::size_t operator()(const ConfirmRespMsg&) const {
    return kTag + kNode + kPeriod + 1;
  }
  std::size_t operator()(const BlameMsg&) const {
    return kTag + kNode + kScore + 1;
  }
  std::size_t operator()(const ScoreQueryMsg&) const {
    return kTag + kNode + 4;
  }
  std::size_t operator()(const ScoreReplyMsg&) const {
    return kTag + kNode + 4 + kScore + 1;
  }
  std::size_t operator()(const ExpelRequestMsg&) const {
    return kTag + kNode + kScore;
  }
  std::size_t operator()(const ExpelVoteMsg&) const { return kTag + kNode + 1; }
  std::size_t operator()(const ExpelCommitMsg&) const {
    return kTag + kNode + 1;
  }
  std::size_t operator()(const AuditRequestMsg&) const { return kTag + 4; }
  std::size_t operator()(const AuditHistoryMsg& m) const {
    return kTag + 4 + records(m.proposals);
  }
  std::size_t operator()(const HistoryPollMsg& m) const {
    return kTag + 4 + kNode + records(m.claims);
  }
  std::size_t operator()(const HistoryPollRespMsg& m) const {
    return kTag + 4 + kNode + 4 + 4 + kCount +
           kNode * m.confirm_askers.size();
  }
  std::size_t operator()(const AuditAckMsg&) const {
    return kTag + 1 + 4 + kNode;
  }
  std::size_t operator()(const RpsShuffleMsg& m) const {
    return kTag + 4 + 1 + kCount + (kNode + 4 + 4 + 1) * m.entries.size();
  }
};

}  // namespace

std::size_t wire_size(const Message& msg) {
  return std::visit(SizeVisitor{}, msg);
}

std::size_t datagram_wire_size(const Message& msg) {
  return kUdpHeader + std::visit(DatagramSizeVisitor{}, msg);
}

const char* message_kind(const Message& msg) {
  return message_kind_name(msg.index());
}

const char* message_kind_name(std::size_t index) {
  static constexpr const char* kNames[] = {
      "propose",       "request",       "serve",
      "ack",           "confirm_req",   "confirm_resp",
      "blame",         "score_query",   "score_reply",
      "expel_request", "expel_vote",    "expel_commit",
      "audit_request", "audit_history", "history_poll",
      "history_poll_resp", "audit_ack", "rps_shuffle"};
  static_assert(std::size(kNames) == std::variant_size_v<Message>);
  return index < std::size(kNames) ? kNames[index] : "unknown";
}

}  // namespace lifting::gossip
