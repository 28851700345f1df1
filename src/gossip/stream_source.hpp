#ifndef LIFTING_GOSSIP_STREAM_SOURCE_HPP
#define LIFTING_GOSSIP_STREAM_SOURCE_HPP

#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "common/time.hpp"
#include "gossip/chunk.hpp"
#include "gossip/engine.hpp"
#include "sim/simulator.hpp"

/// Constant-bitrate stream source (paper §7: a 674 kbps stream broadcast to
/// 300 nodes). The source node injects chunks into its own gossip engine;
/// dissemination then follows the ordinary three-phase protocol.

namespace lifting::gossip {

class StreamSource {
 public:
  struct Params {
    double bitrate_bps = 674'000.0;
    std::uint32_t chunk_payload_bytes = 8'425;  // => 10 chunks/s at 674 kbps
    Duration duration = seconds(60.0);
    friend bool operator==(const Params&, const Params&) = default;

    /// Chunk ids the full stream will span (ceiling), for pre-sizing
    /// per-stream structures like the DeliveryLog presence bitmap.
    [[nodiscard]] std::size_t expected_chunks() const noexcept {
      const double per_chunk_s =
          static_cast<double>(chunk_payload_bytes) * 8.0 / bitrate_bps;
      const double span_s = std::chrono::duration<double>(duration).count();
      return static_cast<std::size_t>(span_s / per_chunk_s) + 1;
    }
  };

  StreamSource(sim::Simulator& sim, Engine& source_engine, Params params)
      : sim_(sim), engine_(source_engine), params_(params) {
    require(params_.bitrate_bps > 0, "bitrate must be positive");
    require(params_.chunk_payload_bytes > 0, "chunk size must be positive");
    interval_ = Duration{static_cast<Duration::rep>(
        static_cast<double>(params_.chunk_payload_bytes) * 8.0 /
        params_.bitrate_bps * 1e6)};
    // The emission record grows for the whole stream; sized up front so
    // mid-stream emits never reallocate it (steady-state zero-alloc).
    emitted_.reserve(params_.expected_chunks());
  }

  /// Starts emitting chunks every `chunk_payload_bytes·8/bitrate` seconds
  /// until `duration` has elapsed.
  void start() {
    end_ = sim_.now() + params_.duration;
    emit();
  }

  /// Stops the stream early (experiment wind-down); the pending emit timer
  /// fires once more and fizzles.
  void stop() { end_ = sim_.now(); }

  [[nodiscard]] const std::vector<ChunkMeta>& emitted() const noexcept {
    return emitted_;
  }
  [[nodiscard]] Duration chunk_interval() const noexcept { return interval_; }

 private:
  void emit() {
    if (sim_.now() >= end_) return;
    const ChunkMeta chunk{next_id_, params_.chunk_payload_bytes, sim_.now()};
    ++next_id_;
    emitted_.push_back(chunk);
    engine_.inject_chunk(chunk);
    sim_.schedule_after(interval_, [this] { emit(); });
  }

  sim::Simulator& sim_;
  Engine& engine_;
  Params params_;
  Duration interval_{};
  TimePoint end_{};
  ChunkId next_id_{0};
  std::vector<ChunkMeta> emitted_;
};

}  // namespace lifting::gossip

#endif  // LIFTING_GOSSIP_STREAM_SOURCE_HPP
