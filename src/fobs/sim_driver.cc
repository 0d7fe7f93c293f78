#include "fobs/sim_driver.h"

#include <cassert>
#include <cstring>
#include <utility>

#include "common/log.h"

namespace fobs::core {

// ---------------------------------------------------------------------------
// SimSender
// ---------------------------------------------------------------------------

SimSender::SimSender(Host& host, TransferSpec spec, SenderConfig config,
                     const std::uint8_t* data, NodeId receiver_node, PortId port_base)
    : host_(host),
      spec_(spec),
      session_(spec, config),
      data_(data),
      receiver_node_(receiver_node),
      port_base_(port_base),
      data_out_(host),
      ack_in_(host, static_cast<PortId>(port_base + kAckPortOffset)),
      // The control channel moves a handful of bytes; TCP defaults are fine.
      completion_listener_(host, static_cast<PortId>(port_base + kCompletionPortOffset),
                           fobs::net::TcpConfig{},
                           [this](std::unique_ptr<fobs::net::TcpConnection> conn) {
                             session_.on_control_connected();
                             control_conn_ = std::move(conn);
                             control_conn_->set_on_message(
                                 [this](const std::any& m) { on_control_message(m); });
                           }) {}

void SimSender::start() {
  if (started_) return;
  started_ = true;
  session_.begin_trace([this] { return host_.network().sim().now().ns(); });
  step();
}

std::int64_t SimSender::take_ack(const std::any& payload) {
  const auto* ack = std::any_cast<AckPacketPayload>(&payload);
  if (ack == nullptr || ack->ack == nullptr) return 0;
  session_.on_ack(ack->corrupted ? nullptr : ack->ack.get());
  return ack->ack->wire_bytes();
}

void SimSender::on_control_message(const std::any& message) {
  const auto* signal = std::any_cast<CompletionSignal>(&message);
  if (signal == nullptr || !session_.on_completion(signal->corrupted)) return;
  if (!finished_) {
    finished_ = true;
    finished_at_ = host_.network().sim().now();
    FOBS_DEBUG("fobs.sender", "completion signal at " << finished_at_.seconds() << "s, sent="
                                                      << session_.core().stats().packets_sent);
    if (on_finished_) on_finished_();
  }
}

void SimSender::step() {
  if (finished_ || mode_ != Mode::kUdp) return;
  auto& sim = host_.network().sim();
  SenderCore& core = session_.core();
  Duration busy = Duration::zero();

  // Phase 2: look for (but do not block on) one acknowledgement.
  if (auto pkt = ack_in_.try_recv()) {
    if (const std::int64_t bytes = take_ack(pkt->payload); bytes > 0) {
      busy += host_.cpu().recv_cost(fobs::util::DataSize::bytes(bytes));
    }
  }

  // §7 first option: sustained congestion hands the transfer to TCP.
  if (core.adaptive().congested()) {
    enter_fallback();
    return;
  }

  // Phase 1: batch-send without blocking. Room 1: the simulator models
  // no segmentation (its CPU model charges per datagram).
  const std::int64_t max_payload = spec_.packet_bytes + kDataHeaderBytes;
  bool blocked = false;
  session_.open_send(1);
  while (session_.pick_due()) {
    if (!data_out_.writable(max_payload)) {
      // Socket buffer full: wait for writability (the select() call),
      // then continue the loop. This path does not reserve the CPU
      // time (`busy`) the iteration has consumed so far.
      host_.notify_writable([this] {
        if (!step_scheduled_) {
          step_scheduled_ = true;
          host_.network().sim().schedule_in(Duration::zero(), [this] {
            step_scheduled_ = false;
            step();
          });
        }
      });
      blocked = true;
      break;
    }
    const auto [seq, fate] = *session_.next_pick();
    const std::int64_t len = spec_.payload_bytes(seq);
    DataPacketPayload payload;
    payload.seq = seq;
    payload.len = static_cast<std::int32_t>(len);
    payload.data = data_ != nullptr ? data_ + spec_.offset_of(seq) : nullptr;
    // The plan models in-flight damage: a dropped packet is sent by the
    // core's accounting but never reaches the wire, a corrupted one
    // arrives with a failing checksum, a duplicated one arrives twice.
    payload.corrupted = fate.corrupt;
    for (int copy = 0; copy < fate.copies; ++copy) {
      const bool ok =
          data_out_.send_to(receiver_node_, static_cast<PortId>(port_base_ + kDataPortOffset),
                            len + kDataHeaderBytes, payload);
      assert(ok);
      (void)ok;
    }
    busy += host_.cpu().send_cost(fobs::util::DataSize::bytes(len + kDataHeaderBytes));
  }
  session_.close_send();
  if (blocked) return;  // resume comes from the writability callback

  if (core.all_acked()) {
    // Everything acked in the local view: idle until either a (stray)
    // ACK or the completion signal arrives.
    ack_in_.set_rx_notify([this] { step(); });
    return;
  }

  // Reserve the CPU time this iteration consumed (co-located transfers
  // contend for the host's core), plus any pacing gap the adaptive-
  // greediness controller requests (idle, not CPU). A tiny floor keeps
  // the loop from spinning in zero simulated time.
  const auto resume =
      host_.reserve_cpu(std::max(busy, Duration::nanoseconds(500))) + core.pacing_gap();
  sim.schedule_at(resume, [this] { step(); });
}

// ---------------------------------------------------------------------------
// §7 TCP fallback: hand the remainder of the object to a congestion-
// controlled TCP channel; probe it and return to greedy UDP once the
// congestion has dissipated.
// ---------------------------------------------------------------------------

void SimSender::enter_fallback() {
  if (mode_ == Mode::kTcpFallback || finished_) return;
  const SenderCore& core = session_.core();
  mode_ = Mode::kTcpFallback;
  ++fallback_episodes_;
  // Note: tcp_cursor_ is intentionally NOT reset — packets offered to
  // the TCP channel in an earlier episode are still reliably in flight
  // there, and re-offering them would be pure duplication.
  probe_clear_streak_ = 0;
  FOBS_INFO("fobs.sender", "entering TCP fallback (loss estimate "
                               << core.adaptive().loss_estimate() << ")");
  if (auto* tracer = core.tracer()) {
    tracer->record(telemetry::EventType::kFallbackEnter, -1, fallback_episodes_);
  }
  auto& sim = host_.network().sim();
  if (tcp_data_ == nullptr) {
    tcp_data_ = std::make_unique<fobs::net::TcpConnection>(host_, fobs::net::TcpConfig{});
    tcp_data_->connect(receiver_node_,
                       static_cast<PortId>(port_base_ + kTcpDataPortOffset));
  }
  probe_rtx_snapshot_ = tcp_data_->stats().retransmissions;
  pump_tcp();
  sim.schedule_in(core.config().adaptive.fallback_probe_interval, [this] { probe_tick(); });
}

void SimSender::exit_fallback() {
  if (mode_ != Mode::kTcpFallback) return;
  mode_ = Mode::kUdp;
  session_.core().reset_adaptive();
  FOBS_INFO("fobs.sender", "congestion dissipated; resuming greedy UDP");
  if (auto* tracer = session_.core().tracer()) {
    tracer->record(telemetry::EventType::kFallbackExit, -1, packets_via_tcp_);
  }
  step();
}

void SimSender::pump_tcp() {
  if (finished_ || mode_ != Mode::kTcpFallback) return;
  SenderCore& core = session_.core();
  const auto& adaptive = core.config().adaptive;
  if (tcp_data_->established()) {
    while (true) {
      const std::int64_t outstanding = tcp_data_->offered_bytes() - tcp_data_->acked_bytes();
      if (outstanding >= adaptive.fallback_window_bytes) break;
      auto seq = core.acked_view().first_clear(static_cast<std::size_t>(tcp_cursor_));
      if (!seq && outstanding == 0) {
        // One full pass done and nothing in flight: any remaining holes
        // mean the FOBS acks lag; rescan from the start.
        tcp_cursor_ = 0;
        seq = core.acked_view().first_clear(0);
      }
      if (!seq) break;
      tcp_cursor_ = static_cast<PacketSeq>(*seq) + 1;
      const std::int64_t len = spec_.payload_bytes(static_cast<PacketSeq>(*seq));
      DataPacketPayload payload;
      payload.seq = static_cast<PacketSeq>(*seq);
      payload.len = static_cast<std::int32_t>(len);
      payload.data = data_ != nullptr ? data_ + spec_.offset_of(payload.seq) : nullptr;
      core.record_external_send(payload.seq);
      ++packets_via_tcp_;
      tcp_data_->send_message(len + kDataHeaderBytes, payload);
    }
  }
  // Fold in any FOBS acknowledgements that arrived meanwhile.
  while (auto pkt = ack_in_.try_recv()) take_ack(pkt->payload);
  host_.network().sim().schedule_in(Duration::milliseconds(2), [this] { pump_tcp(); });
}

void SimSender::probe_tick() {
  if (finished_ || mode_ != Mode::kTcpFallback) return;
  const auto& adaptive = session_.core().config().adaptive;
  const std::uint64_t rtx = tcp_data_->stats().retransmissions;
  if (rtx == probe_rtx_snapshot_) {
    ++probe_clear_streak_;
  } else {
    probe_clear_streak_ = 0;
  }
  probe_rtx_snapshot_ = rtx;
  if (probe_clear_streak_ >= adaptive.fallback_clear_probes) {
    exit_fallback();
    return;
  }
  host_.network().sim().schedule_in(adaptive.fallback_probe_interval,
                                    [this] { probe_tick(); });
}

// ---------------------------------------------------------------------------
// SimReceiver
// ---------------------------------------------------------------------------

SimReceiver::SimReceiver(Host& host, TransferSpec spec, ReceiverConfig config,
                         std::uint8_t* buffer, NodeId sender_node,
                         std::int64_t socket_buffer_bytes, PortId port_base)
    : host_(host),
      spec_(spec),
      // The simulator's one fault plan has its data schedule drawn by
      // the sender.
      session_(spec, config, /*draws_data_faults=*/false),
      buffer_(buffer),
      sender_node_(sender_node),
      port_base_(port_base),
      data_in_(host, static_cast<PortId>(port_base + kDataPortOffset), socket_buffer_bytes),
      ack_out_(host),
      control_conn_(host, fobs::net::TcpConfig{}),
      fallback_listener_(host, static_cast<PortId>(port_base + kTcpDataPortOffset),
                         fobs::net::TcpConfig{},
                         [this](std::unique_ptr<fobs::net::TcpConnection> conn) {
                           fallback_conn_ = std::move(conn);
                           fallback_conn_->set_on_message(
                               [this](const std::any& m) { on_tcp_data(m); });
                         }) {}

void SimReceiver::start() {
  if (started_) return;
  started_ = true;
  session_.begin_trace([this] { return host_.network().sim().now().ns(); });
  control_conn_.connect(sender_node_,
                        static_cast<PortId>(port_base_ + kCompletionPortOffset));
  step();
}

Duration SimReceiver::process_packet(const DataPacketPayload& payload) {
  auto& sim = host_.network().sim();
  Duration busy =
      host_.cpu().recv_cost(fobs::util::DataSize::bytes(payload.len + kDataHeaderBytes));
  // Past the crash point this incarnation is silent without cleanup (no
  // ACKs, no completion), exactly like a killed process.
  if (session_.crash_due()) return busy;
  const ReceiverCore& core = session_.core();
  const auto result = session_.admit(payload.seq, !payload.corrupted);
  if (payload.corrupted) return busy;
  if (result.newly_received && buffer_ != nullptr && payload.data != nullptr) {
    std::memcpy(buffer_ + spec_.offset_of(payload.seq), payload.data,
                static_cast<std::size_t>(payload.len));
  }
  if (result.ack_due) {
    // Building + sending the ACK stalls the poll loop — the Figure 1
    // mechanism. The ACK itself is best-effort UDP.
    busy += host_.cpu().ack_build;
    auto out = session_.next_ack();
    auto ack = std::make_shared<const AckMessage>(std::move(out.message));
    const std::int64_t bytes = ack->wire_bytes();
    AckPacketPayload ack_payload{std::move(ack), out.fate.corrupt};
    bool wire_ok = out.fate.copies == 0;  // an injector-eaten ACK still "sent" fine
    for (int copy = 0; copy < out.fate.copies; ++copy) {
      if (ack_out_.send_to(sender_node_, static_cast<PortId>(port_base_ + kAckPortOffset),
                           bytes, ack_payload)) {
        wire_ok = true;
      }
    }
    if (wire_ok) {
      ++acks_sent_;
      busy += host_.cpu().send_cost(fobs::util::DataSize::bytes(bytes));
      if (auto* tracer = core.tracer()) {
        tracer->record(telemetry::EventType::kAckSent,
                       static_cast<std::int64_t>(acks_sent_), bytes);
      }
    }
  }
  // Packets that overflowed the socket buffer while this loop was busy
  // (placing packets, building the ACK) are the paper's Figure 1 loss.
  if (auto* tracer = core.tracer()) {
    const std::uint64_t drops = data_in_.stats().rx_overflow_drops;
    if (drops > traced_drops_) {
      tracer->record(telemetry::EventType::kDropWhileAcking, -1,
                     static_cast<std::int64_t>(drops - traced_drops_));
      traced_drops_ = drops;
    }
  }
  if (result.just_completed) {
    completed_at_ = sim.now();
    const DatagramFate fate = session_.completion_fate();
    const CompletionSignal signal{core.stats().packets_received, fate.corrupt};
    if (fate.copies > 0) control_conn_.send_message(kCompletionSignalBytes, signal);
    FOBS_DEBUG("fobs.receiver", "object complete at " << completed_at_.seconds() << "s");
  }
  return busy;
}

void SimReceiver::on_tcp_data(const std::any& message) {
  // Fallback-channel arrivals are pushed by the TCP stack rather than
  // pulled by the poll loop; the CPU accounting is simplified to the
  // same per-packet cost without the socket-buffer overflow model (TCP
  // is flow-controlled, so the receiver can never be overrun).
  const auto* payload = std::any_cast<DataPacketPayload>(&message);
  if (payload == nullptr) return;
  process_packet(*payload);
}

void SimReceiver::step() {
  if (session_.crashed()) return;  // a crashed incarnation never polls again
  auto& sim = host_.network().sim();
  auto pkt = data_in_.try_recv();
  if (!pkt) {
    data_in_.set_rx_notify([this] { step(); });
    return;
  }
  const auto* payload = std::any_cast<DataPacketPayload>(&pkt->payload);
  if (payload == nullptr) {
    sim.schedule_in(Duration::nanoseconds(500), [this] { step(); });
    return;
  }
  const Duration busy = process_packet(*payload);
  sim.schedule_at(host_.reserve_cpu(std::max(busy, Duration::nanoseconds(500))),
                  [this] { step(); });
}

}  // namespace fobs::core
