#include "fobs/receiver_core.h"

#include <cassert>

namespace fobs::core {

ReceiverCore::ReceiverCore(TransferSpec spec, ReceiverConfig config)
    : spec_(spec),
      config_(config),
      received_(static_cast<std::size_t>(spec.packet_count())),
      ack_builder_(spec.packet_count(), config.ack_payload_bytes) {
  assert(config_.ack_frequency > 0);
}

ReceiverCore::PacketResult ReceiverCore::on_data_packet(PacketSeq seq) {
  assert(seq >= 0 && seq < spec_.packet_count());
  PacketResult result;
  ++stats_.packets_seen;
  if (!received_.set(static_cast<std::size_t>(seq))) {
    ++stats_.duplicates;
    if (tracer_ != nullptr) tracer_->record(telemetry::EventType::kDuplicate, seq);
    return result;
  }
  result.newly_received = true;
  ++stats_.packets_received;
  ++new_since_ack_;
  if (seq == frontier_) {
    const auto next = received_.first_clear(static_cast<std::size_t>(frontier_));
    frontier_ = next ? static_cast<PacketSeq>(*next) : spec_.packet_count();
  }
  result.just_completed = received_.all_set();
  result.ack_due = new_since_ack_ >= config_.ack_frequency || result.just_completed;
  if (tracer_ != nullptr) {
    tracer_->record(telemetry::EventType::kPacketPlaced, seq, stats_.packets_received);
    if (result.just_completed) {
      tracer_->record(telemetry::EventType::kCompletion, -1, stats_.packets_received);
    }
  }
  return result;
}

AckMessage ReceiverCore::make_ack() {
  new_since_ack_ = 0;
  ++stats_.acks_built;
  auto ack =
      ack_builder_.build(received_, frontier_, stats_.packets_received + stats_.restored);
  if (tracer_ != nullptr) {
    tracer_->record(telemetry::EventType::kAckBuilt,
                    static_cast<std::int64_t>(ack.ack_no), ack.total_received);
  }
  return ack;
}

std::int64_t ReceiverCore::restore(const std::uint8_t* packed, std::size_t packed_len,
                                   std::int64_t nbits) {
  if (nbits != spec_.packet_count() || nbits < 0) return -1;
  const std::int64_t restored = static_cast<std::int64_t>(
      received_.merge_range(0, static_cast<std::size_t>(nbits), packed, packed_len));
  stats_.restored += restored;
  const auto next = received_.first_clear(0);
  frontier_ = next ? static_cast<PacketSeq>(*next) : spec_.packet_count();
  if (tracer_ != nullptr) {
    tracer_->record(telemetry::EventType::kResume, -1, restored);
  }
  return restored;
}

}  // namespace fobs::core
