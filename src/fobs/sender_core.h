// Transport-agnostic FOBS sender state machine (paper §3.1).
//
// The sender iterates over three phases:
//   1. batch-send `batch_size` packets without blocking,
//   2. check for (but never block on) an acknowledgement and fold it
//      into the local view of the receiver's bitmap,
//   3. pick the next packets via the selection policy.
// It is *greedy*: it keeps (re)transmitting until the receiver's
// completion signal arrives over the TCP control channel.
//
// This class is sans-io: SenderSession asks it which packet to send
// next and feeds it ACK/completion events for the drivers (simulator or
// POSIX sockets). All protocol behaviour is testable without a network.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/bitmap.h"
#include "common/rng.h"
#include "fobs/ack.h"
#include "fobs/adaptive.h"
#include "fobs/selection.h"
#include "fobs/types.h"
#include "telemetry/trace.h"

namespace fobs::core {

/// How the per-iteration batch size is chosen (paper §3.1.1 studies the
/// fixed value; adaptive is the "use ack deltas" variant the paper
/// sketches for phase 2).
enum class BatchPolicy {
  kFixed,
  /// Batch grows toward the observed receive rate between ACKs (half of
  /// the last inter-ACK delivery count), clamped to [1, 64].
  kAckAdaptive,
};

struct SenderConfig {
  int batch_size = 2;  ///< paper's best value
  BatchPolicy batch_policy = BatchPolicy::kFixed;
  SelectionKind selection = SelectionKind::kCircular;
  std::uint64_t seed = 1;  ///< for the random selection policy
  /// §7 extension: congestion-adaptive greediness (off by default —
  /// plain FOBS has no congestion control).
  AdaptiveConfig adaptive;
};

struct SenderStats {
  std::int64_t packets_sent = 0;       ///< total, incl. retransmissions
  std::int64_t acks_processed = 0;
  std::int64_t packets_acked = 0;      ///< unique packets known received
  std::int64_t duplicate_sends = 0;    ///< sends beyond the first per packet
};

class SenderCore {
 public:
  SenderCore(TransferSpec spec, SenderConfig config);

  [[nodiscard]] const TransferSpec& spec() const { return spec_; }
  [[nodiscard]] const SenderConfig& config() const { return config_; }

  /// Picks the next packet to transmit and records it as sent. Call only
  /// when the datagram can actually be handed to the network (the driver
  /// has already checked writability — the paper's select() check).
  /// Returns nullopt when every packet is acked in the local view.
  std::optional<PacketSeq> select_next();

  /// Number of packets to send in the current batch (phase 1).
  [[nodiscard]] int current_batch_size() const { return batch_size_; }

  /// Folds an acknowledgement into the local view (phase 2).
  /// Returns the number of packets newly learned to be received.
  std::int64_t on_ack(const AckMessage& ack);

  /// Folds a resume frame (the receiver's packed bitmap, `nbits` packets
  /// from seq 0) into the local view. Returns the packets newly learned
  /// to be received, or -1 when `nbits` is not this transfer's count.
  std::int64_t on_resume(const std::uint8_t* packed, std::size_t packed_len,
                         std::int64_t nbits);

  /// Forgets everything learned from ACKs, so every packet is eligible
  /// for retransmission again: the receiver reconnected in an unknown
  /// state (see SenderSession::on_control_connected).
  void on_peer_restart();

  /// Records a send performed outside the selection policy (the TCP
  /// fallback channel): keeps the waste accounting truthful.
  void record_external_send(PacketSeq seq);

  /// Clears the adaptive controller (used when returning from TCP
  /// fallback to re-probe the network from a clean slate).
  void reset_adaptive() { adaptive_.reset(); }

  /// Attaches a per-transfer event tracer (nullptr = telemetry off, the
  /// default). The tracer must outlive the core; the core records
  /// protocol events (ACK processed, completion), SenderSession each
  /// send's batch, and the driver transport events (timeouts).
  void set_tracer(telemetry::EventTracer* tracer) { tracer_ = tracer; }
  [[nodiscard]] telemetry::EventTracer* tracer() const { return tracer_; }

  /// The receiver's TCP "all data received" signal.
  void on_completion_signal() {
    completion_received_ = true;
    if (tracer_ != nullptr) {
      tracer_->record(telemetry::EventType::kCompletion, -1, stats_.packets_sent);
    }
  }
  [[nodiscard]] bool completion_received() const { return completion_received_; }

  /// True when the local view believes everything was received. The
  /// greedy sender keeps going until `completion_received()` regardless.
  [[nodiscard]] bool all_acked() const { return acked_view_.all_set(); }

  [[nodiscard]] const SenderStats& stats() const { return stats_; }
  [[nodiscard]] const fobs::util::Bitmap& acked_view() const { return acked_view_; }
  [[nodiscard]] const std::vector<std::uint32_t>& send_counts() const { return send_counts_; }

  /// Extra per-batch idle time requested by the adaptive controller
  /// (zero when the extension is disabled or the path looks clean).
  [[nodiscard]] fobs::util::Duration pacing_gap() const { return adaptive_.gap(); }
  [[nodiscard]] const GreedinessController& adaptive() const { return adaptive_; }

  /// Wasted network resources per the paper's definition:
  /// (total sent - needed) / needed.
  [[nodiscard]] double waste() const {
    const auto needed = static_cast<double>(spec_.packet_count());
    if (needed == 0) return 0.0;
    return (static_cast<double>(stats_.packets_sent) - needed) / needed;
  }

 private:
  void update_adaptive_batch(const AckMessage& ack);

  TransferSpec spec_;
  SenderConfig config_;
  fobs::util::Bitmap acked_view_;
  std::unique_ptr<SelectionPolicy> policy_;
  std::vector<std::uint32_t> send_counts_;
  int batch_size_;
  bool completion_received_ = false;
  // Adaptive batch bookkeeping.
  std::uint64_t last_ack_no_ = 0;
  std::int64_t last_total_received_ = 0;
  // Adaptive greediness bookkeeping.
  GreedinessController adaptive_;
  std::int64_t sent_at_last_ack_ = 0;
  std::int64_t received_at_last_ack_ = 0;
  SenderStats stats_;
  telemetry::EventTracer* tracer_ = nullptr;
};

}  // namespace fobs::core
