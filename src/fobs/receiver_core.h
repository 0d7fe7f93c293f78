// Transport-agnostic FOBS receiver state machine (paper §3.2).
//
// The receiver polls the network, places each arriving packet into the
// pre-allocated object buffer by sequence number, and after every
// `ack_frequency` *new* packets builds an acknowledgement. The ack
// frequency is the paper's central tunable: it sets the level of
// synchronization between sender and receiver (Figures 1 and 2).
#pragma once

#include <cstdint>

#include "common/bitmap.h"
#include "fobs/ack.h"
#include "fobs/types.h"
#include "telemetry/trace.h"

namespace fobs::core {

struct ReceiverConfig {
  /// New packets received before an acknowledgement is generated.
  std::int64_t ack_frequency = 64;
  /// Max ACK packet payload; bounds the bitmap fragment size.
  std::int64_t ack_payload_bytes = 1024;
};

struct ReceiverStats {
  std::int64_t packets_seen = 0;      ///< all arrivals, incl. duplicates
  std::int64_t packets_received = 0;  ///< unique, this run only
  std::int64_t duplicates = 0;
  std::int64_t acks_built = 0;
  std::int64_t restored = 0;          ///< packets pre-seeded from a checkpoint
};

class ReceiverCore {
 public:
  ReceiverCore(TransferSpec spec, ReceiverConfig config);

  struct PacketResult {
    bool newly_received = false;
    /// The ack-frequency threshold was reached (or the object just
    /// completed): the driver should build and send an ACK now.
    bool ack_due = false;
    /// This packet completed the object.
    bool just_completed = false;
  };

  /// Processes one arriving data packet.
  PacketResult on_data_packet(PacketSeq seq);

  /// Builds the next acknowledgement (resets the ack-frequency counter).
  AckMessage make_ack();

  /// Pre-seeds the received bitmap (extract_range format, `nbits` from
  /// seq 0) before any packet arrives, and traces a `resume` event.
  /// Returns the packets restored, or -1 when `nbits` does not match.
  std::int64_t restore(const std::uint8_t* packed, std::size_t packed_len,
                       std::int64_t nbits);

  /// Attaches a per-transfer event tracer (nullptr = telemetry off, the
  /// default; must outlive the core). Records packet placement,
  /// duplicates, ACK construction, and completion.
  void set_tracer(telemetry::EventTracer* tracer) { tracer_ = tracer; }
  [[nodiscard]] telemetry::EventTracer* tracer() const { return tracer_; }

  [[nodiscard]] bool complete() const { return received_.all_set(); }
  /// All packets below the frontier have been received.
  [[nodiscard]] PacketSeq frontier() const { return frontier_; }
  [[nodiscard]] const fobs::util::Bitmap& received() const { return received_; }
  [[nodiscard]] const TransferSpec& spec() const { return spec_; }
  [[nodiscard]] const ReceiverConfig& config() const { return config_; }
  [[nodiscard]] const ReceiverStats& stats() const { return stats_; }

 private:
  TransferSpec spec_;
  ReceiverConfig config_;
  fobs::util::Bitmap received_;
  AckBuilder ack_builder_;
  PacketSeq frontier_ = 0;
  std::int64_t new_since_ack_ = 0;
  ReceiverStats stats_;
  telemetry::EventTracer* tracer_ = nullptr;
};

}  // namespace fobs::core
