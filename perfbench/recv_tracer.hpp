#ifndef LIFTING_PERFBENCH_RECV_TRACER_HPP
#define LIFTING_PERFBENCH_RECV_TRACER_HPP

/// Outside-in receive tracing for the benchmark's traced runs.
///
/// The tracer never touches the program: it replaces each initial node's
/// network handler with a shim that routes exactly as
/// Experiment::make_node does (variant index below kGossipKindCount to the
/// engine, the rest to the agent) and times the call, counting heap
/// allocations through bench/alloc_tally.hpp's global counter. The caller
/// drives the run in one-simulated-second slices; at the end of each phase
/// the per-kind receive totals become aggregate spans under it.
///
/// Simulated deliveries never nest, so receive spans are disjoint and the
/// run time outside them (queue, delivery, timer-driven engine/agent/RPS
/// work) is their complement. Spans stay in memory and are written out as
/// JSON lines once the benchmark ends.
///
/// Include from the driver's single translation unit only: alloc_tally.hpp
/// replaces the global allocation functions.

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <variant>
#include <vector>

#include "alloc_tally.hpp"
#include "gossip/message.hpp"
#include "runtime/experiment.hpp"

namespace lifting::perfbench {

using Clock = std::chrono::steady_clock;

inline constexpr std::size_t kKinds = std::variant_size_v<gossip::Message>;

/// Receive work of one message kind: handler calls, nanoseconds inside
/// them, and heap allocations they made.
struct KindStat {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
  std::uint64_t allocs = 0;

  void add(const KindStat& other) noexcept {
    calls += other.calls;
    ns += other.ns;
    allocs += other.allocs;
  }
};
using KindStats = std::array<KindStat, kKinds>;

/// One span. Phase spans have kind < 0; receive aggregates carry the
/// message kind and the totals of that kind within their parent phase.
struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0: a run's root span
  std::uint32_t task = 0;    ///< the run the span belongs to
  const char* name = "";
  int kind = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  KindStat recv;
};

class RecvTracer {
 public:
  RecvTracer() = default;
  RecvTracer(const RecvTracer&) = delete;
  RecvTracer& operator=(const RecvTracer&) = delete;

  /// Opens a span; returns its id.
  std::uint32_t open(const char* name, std::uint32_t parent,
                     std::uint32_t task) {
    Span s;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = parent;
    s.task = task;
    s.name = name;
    s.start_ns = since_epoch();
    spans_.push_back(s);
    return s.id;
  }
  /// Closes span `id`.
  void close(std::uint32_t id) { spans_[id - 1].end_ns = since_epoch(); }

  /// Replaces the handler of every initial node of `ex` (ids below
  /// config().nodes) with the timing shim; `ex` must outlive its run, and
  /// installing on another deployment retargets the tracer. Timeline
  /// joiners and rejoined incarnations register their own handlers later
  /// and stay unwrapped; trace.coverage reports the share of deliveries
  /// the shims saw.
  void install(runtime::Experiment& ex) {
    ex_ = &ex;
    for (std::uint32_t i = 0; i < ex.config().nodes; ++i) {
      const NodeId id{i};
      // {this, id} fits std::function's inline buffer: no per-node heap
      // object to chase on every delivery.
      ex.network().set_handler(
          id, [this, id](sim::Delivery<gossip::Message>& d) {
            const std::size_t kind = d.payload.index();
            const std::uint64_t a0 =
                bench::g_alloc_calls.load(std::memory_order_relaxed);
            const auto t0 = Clock::now();
            if (kind < gossip::kGossipKindCount) {
              ex_->engine(id).handle(d.from, d.payload);
            } else if (ex_->has_agents()) {
              ex_->agent(id).handle(d.from, d.payload);
            }
            const auto t1 = Clock::now();
            KindStat& s = bucket_[kind];
            ++s.calls;
            s.ns += static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                    .count());
            s.allocs +=
                bench::g_alloc_calls.load(std::memory_order_relaxed) - a0;
          });
    }
  }

  /// Moves the receive work recorded since the last flush into aggregate
  /// spans under `phase` (one per kind that saw calls) and returns it.
  KindStats flush(std::uint32_t phase) {
    const Span p = spans_[phase - 1];  // a copy: push_back below reallocates
    const KindStats out = bucket_;
    for (std::size_t k = 0; k < kKinds; ++k) {
      if (out[k].calls == 0) continue;
      Span s;
      s.id = static_cast<std::uint32_t>(spans_.size() + 1);
      s.parent = p.id;
      s.task = p.task;
      s.name = "recv";
      s.kind = static_cast<int>(k);
      s.start_ns = p.start_ns;
      s.end_ns = since_epoch();
      s.recv = out[k];
      spans_.push_back(s);
      totals_[k].add(out[k]);
    }
    bucket_ = KindStats{};
    return out;
  }

  /// Receive totals over every flushed phase.
  [[nodiscard]] const KindStats& totals() const noexcept { return totals_; }

  /// Writes every span as one JSON object per line; false on I/O failure.
  bool write(const char* path) const {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"id\":%u,\"parent\":%u,\"task\":%u,\"name\":\"%s%s%s\","
                   "\"start_ns\":%lld,\"end_ns\":%lld",
                   s.id, s.parent, s.task, s.name, s.kind < 0 ? "" : ".",
                   s.kind < 0 ? ""
                              : gossip::message_kind_name(
                                    static_cast<std::size_t>(s.kind)),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
      if (s.kind >= 0) {
        std::fprintf(f, ",\"calls\":%llu,\"busy_ns\":%llu,\"allocs\":%llu",
                     static_cast<unsigned long long>(s.recv.calls),
                     static_cast<unsigned long long>(s.recv.ns),
                     static_cast<unsigned long long>(s.recv.allocs));
      }
      std::fprintf(f, "}\n");
    }
    return std::fclose(f) == 0;
  }

 private:
  [[nodiscard]] std::int64_t since_epoch() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  Clock::time_point epoch_ = Clock::now();
  runtime::Experiment* ex_ = nullptr;  ///< the deployment the shims route to
  std::vector<Span> spans_;
  KindStats bucket_{};  ///< receive work since the last flush
  KindStats totals_{};
};

}  // namespace lifting::perfbench

#endif  // LIFTING_PERFBENCH_RECV_TRACER_HPP
