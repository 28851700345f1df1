#ifndef LIFTING_GOSSIP_MAILER_HPP
#define LIFTING_GOSSIP_MAILER_HPP

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "gossip/message.hpp"
#include "net/transport.hpp"

/// Sends protocol messages through a net::Transport while keeping per-kind
/// message/byte accounting — the raw data behind Table 5 (verification
/// overhead as a fraction of stream bandwidth) and Table 3 (verification
/// message counts).
///
/// The Mailer is the single choke point between the protocol stack and the
/// backend: every Engine/Agent send passes through it, so swapping the
/// transport (simulator vs real UDP sockets) never touches protocol code.

namespace lifting::gossip {

/// Messages and modeled bytes sent, per Message kind (variant index). A
/// flat array: accounting a send is two adds, with no lookup.
class SendTally {
 public:
  struct Kind {
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
  };
  static constexpr std::size_t kKinds = std::variant_size_v<Message>;

  void add(std::size_t kind, std::size_t bytes) noexcept {
    ++kinds_[kind].count;
    kinds_[kind].bytes += bytes;
  }
  template <typename M>
  [[nodiscard]] const Kind& of() const noexcept {
    return kinds_[kind_index<M>()];
  }
  /// Bytes sent over the kinds [first, last).
  [[nodiscard]] std::uint64_t bytes(std::size_t first,
                                    std::size_t last) const noexcept {
    std::uint64_t total = 0;
    for (std::size_t k = first; k < last; ++k) total += kinds_[k].bytes;
    return total;
  }
  /// `sent.<kind>.count` / `sent.<kind>.bytes` for every kind in variant
  /// order, zeros included — the reported names (DESIGN.md §13).
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> snapshot()
      const {
    std::vector<std::pair<std::string, std::uint64_t>> out;
    out.reserve(2 * kKinds);
    for (std::size_t k = 0; k < kKinds; ++k) {
      const std::string prefix = std::string("sent.") + message_kind_name(k);
      out.emplace_back(prefix + ".count", kinds_[k].count);
      out.emplace_back(prefix + ".bytes", kinds_[k].bytes);
    }
    return out;
  }
  void reset() noexcept { kinds_.fill(Kind{}); }

 private:
  std::array<Kind, kKinds> kinds_{};
};

class Mailer {
 public:
  /// Sends through `transport`, which must outlive the Mailer: a
  /// net::SimTransport in the simulator, a net::UdpTransport on the wire
  /// (either behind the fault injector).
  explicit Mailer(net::Transport& transport) : transport_(transport) {}

  /// Prices the §5.3 audit kinds (and their channel acks) with the exact
  /// datagram model instead of amortized TCP framing — set by the runtime
  /// when LiftingParams::audit_channel is kReliableUdp, where those kinds
  /// travel as real datagrams. Off (the default) keeps the historical
  /// byte-identical accounting.
  void set_datagram_audit_pricing(bool on) noexcept {
    datagram_audit_pricing_ = on;
  }

  void send(NodeId from, NodeId to, sim::Channel channel, Message message) {
    const bool audit_kind = message.index() >= kAuditKindFirst;
    const std::size_t bytes = datagram_audit_pricing_ && audit_kind
                                  ? datagram_wire_size(message)
                                  : wire_size(message);
    tally_.add(message.index(), bytes);
    transport_.send(from, to, channel, bytes, std::move(message));
  }

  [[nodiscard]] net::Transport& transport() noexcept { return transport_; }
  [[nodiscard]] const SendTally& tally() const noexcept { return tally_; }
  void reset_tally() noexcept { tally_.reset(); }

 private:
  net::Transport& transport_;
  bool datagram_audit_pricing_ = false;
  SendTally tally_;
};

}  // namespace lifting::gossip

#endif  // LIFTING_GOSSIP_MAILER_HPP
