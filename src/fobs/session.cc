#include "fobs/session.h"

#include "telemetry/metrics.h"

namespace fobs::core {

namespace {
telemetry::MetricsRegistry& metrics() { return telemetry::MetricsRegistry::global(); }

// What a stall check counts as progress: packets known received, plus
// the completion signal on the sender (a completing-but-quiet interval
// is not a stall). A complete object never stalls its receiver.
std::int64_t progress_of(const SenderCore& core) {
  return static_cast<std::int64_t>(core.acked_view().count()) +
         (core.completion_received() ? 1 : 0);
}
std::int64_t progress_of(const ReceiverCore& core) {
  return static_cast<std::int64_t>(core.received().count());
}
bool finished(const SenderCore& /*core*/) { return false; }
bool finished(const ReceiverCore& core) { return core.complete(); }
}  // namespace

template <typename Core>
bool Session<Core>::stall_expired(std::int64_t now_ns) {
  if (limit_ == 0) return false;
  for (; now_ns >= next_check_ns_; next_check_ns_ += interval_ns_) {
    const std::int64_t progress = progress_of(core_);
    if (progress > progress_ || finished(core_)) {
      reset_progress(progress);
      continue;
    }
    ++streak_;
    if (tracer_ != nullptr) tracer_->record(telemetry::EventType::kStall, -1, streak_);
  }
  return streak_ >= limit_;
}

template <typename Core>
void Session<Core>::drop_corrupt(PacketSeq seq, std::int64_t& dropped) {
  ++dropped;
  metrics().counter("fobs.fault.corrupt_drops").inc();
  if (tracer_ != nullptr) tracer_->record(telemetry::EventType::kCorruptDrop, seq, dropped);
}

template <typename Core>
void Session<Core>::note_reconnect(int& reconnects) {
  ++reconnects;
  metrics().counter("fobs.fault.reconnects").inc();
  if (tracer_ != nullptr) tracer_->record(telemetry::EventType::kReconnect, -1, reconnects);
}

template <typename Core>
GiveUp Session<Core>::give_up(bool progressed) {
  metrics().counter("fobs.fault.stalls").inc();
  return progressed ? GiveUp::kStalled : GiveUp::kTimeout;
}

template class Session<SenderCore>;
template class Session<ReceiverCore>;

void SenderSession::on_ack(const AckMessage* ack) {
  if (ack == nullptr) {
    drop_corrupt(-1, stats_.corrupt_acks_dropped);
    return;
  }
  if (filtering_ && ack->epoch != epoch_) {
    ++stats_.stale_acks_dropped;
    metrics().counter("fobs.fault.stale_acks").inc();
    return;
  }
  if (!completed()) core_.on_ack(*ack);
}

bool SenderSession::on_control_connected() {
  const bool reconnect = connected_;
  connected_ = true;
  if (!reconnect) return false;
  note_reconnect(stats_.reconnects);
  // Possibly a from-scratch restart: everything is resent unless a
  // resume frame follows.
  core_.on_peer_restart();
  reset_progress(0);  // a reconnect is progress; the budget restarts
  epoch_ = 0;
  return true;
}

void SenderSession::on_resume(const std::uint8_t* packed, std::size_t packed_len,
                              std::int64_t nbits) {
  const std::int64_t newly = core_.on_resume(packed, packed_len, nbits);
  if (newly < 0) return;
  stats_.packets_resumed += newly;
  metrics().counter("fobs.fault.resumes").inc();
}

bool SenderSession::on_completion(bool corrupted) {
  if (corrupted) {
    // A garbled "done" must not end the transfer: keep it alive.
    drop_corrupt(-1, stats_.corrupt_control_dropped);
    return false;
  }
  core_.on_completion_signal();
  return true;
}

std::int64_t ReceiverSession::open_record(const stripe::StripePlan& plan, int stripe,
                                          const std::uint8_t* known, std::size_t known_len) {
  plan_ = &plan;
  stripe_ = stripe;
  const auto whole_packets = static_cast<std::size_t>(plan.spec().packet_count());
  record_ = fobs::util::Bitmap(whole_packets);
  if (known == nullptr) return 0;
  record_.merge_range(0, whole_packets, known, known_len);
  const auto local_packets = static_cast<std::size_t>(core_.spec().packet_count());
  fobs::util::Bitmap mine(local_packets);
  for (std::size_t j = 0; j < local_packets; ++j) {
    const auto global = plan.to_global(stripe, static_cast<PacketSeq>(j));
    if (record_.test(static_cast<std::size_t>(global))) mine.set(j);
  }
  const auto packed = mine.extract_range(0, local_packets);
  stats_.packets_restored =
      core_.restore(packed.data(), packed.size(), static_cast<std::int64_t>(local_packets));
  // Restored packets are progress the stall checks must not count again.
  reset_progress(static_cast<std::int64_t>(core_.received().count()));
  if (stats_.packets_restored > 0) metrics().counter("fobs.fault.resumes").inc();
  return stats_.packets_restored;
}

ReceiverCore::PacketResult ReceiverSession::admit(PacketSeq seq, bool checksum_ok) {
  if (!checksum_ok) {
    // Rejected before it can touch the object; the greedy sender resends.
    drop_corrupt(seq, stats_.corrupt_packets_dropped);
    return {};
  }
  if (draws_data_faults_) {
    // Damage beyond what the checksum caught, drawn per datagram: a
    // drop pretends it never arrived, a corrupt one is rejected.
    const DatagramFate fate = draw(fobs::net::FaultChannel::kData);
    if (fate.copies == 0) return {};
    if (fate.corrupt) {
      drop_corrupt(seq, stats_.corrupt_packets_dropped);
      return {};
    }
  }
  const auto result = core_.on_data_packet(seq);
  if (result.newly_received && !record_.empty()) {
    record_.set(static_cast<std::size_t>(plan_->to_global(stripe_, seq)));
  }
  return result;
}

ReceiverSession::OutgoingAck ReceiverSession::next_ack() {
  OutgoingAck out{core_.make_ack(), draw(fobs::net::FaultChannel::kAck)};
  out.message.epoch = epoch_;
  if (!record_.empty() && ++acks_since_save_ >= kCheckpointEveryAcks) {
    acks_since_save_ = 0;
    out.save_record = true;
  }
  return out;
}

}  // namespace fobs::core
