// Simulator drivers that run the FOBS sender/receiver cores over the
// discrete-event network.
//
// The drivers reproduce the paper's user-level process structure:
//  * both sides are single-threaded poll loops that charge host CPU time
//    for every syscall-equivalent (send, recv, ACK construction);
//  * the sender never blocks on ACKs — it checks for one per iteration
//    (paper phase 2) and otherwise keeps batch-sending;
//  * a full NIC/socket send buffer makes the sender wait for
//    writability, mirroring the select() call in the paper;
//  * while the receiver is busy (processing a packet or building an
//    ACK), arrivals queue in its UDP socket buffer; overflow there is
//    packet loss — the paper's "packets missed while creating and
//    sending an acknowledgement ... will be lost".
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "fobs/session.h"
#include "fobs/wire.h"
#include "host/host.h"
#include "net/tcp.h"
#include "net/udp.h"

namespace fobs::core {

using fobs::host::Host;
using fobs::sim::NodeId;
using fobs::sim::PortId;
using fobs::util::Duration;
using fobs::util::TimePoint;

/// Default port block used by the sim drivers. A transfer occupies four
/// consecutive ports starting at its `port_base` (data, ACK, completion,
/// TCP-fallback data), so concurrent transfers between the same host
/// pair just use different bases (e.g. 7001, 7101, ...).
inline constexpr PortId kFobsPortBase = 7001;
inline constexpr PortId kDataPortOffset = 0;        ///< receiver side, UDP
inline constexpr PortId kAckPortOffset = 1;         ///< sender side, UDP
inline constexpr PortId kCompletionPortOffset = 2;  ///< sender side, TCP
inline constexpr PortId kTcpDataPortOffset = 3;     ///< receiver side, TCP (§7)

/// Sender-side driver: greedy batch-send loop.
class SimSender {
 public:
  /// @param data pointer to `spec.object_bytes` bytes (may be null for a
  ///        size-only simulation); must outlive the driver.
  /// @param port_base first of the four consecutive ports this transfer
  ///        uses (must match the receiver's).
  SimSender(Host& host, TransferSpec spec, SenderConfig config, const std::uint8_t* data,
            NodeId receiver_node, PortId port_base = kFobsPortBase);

  /// Starts the send loop (call after the receiver exists).
  void start();

  /// The recovery session. Attach a tracer and a fault injector (may be
  /// shared with the receiver) here before start(), which installs the
  /// sim clock on the tracer; the session traces batches, the driver
  /// fallback events.
  [[nodiscard]] SenderSession& session() { return session_; }
  [[nodiscard]] const SenderSession& session() const { return session_; }

  [[nodiscard]] const SenderCore& core() const { return session_.core(); }
  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] TimePoint finished_at() const { return finished_at_; }
  /// §7 TCP-fallback diagnostics.
  [[nodiscard]] int fallback_episodes() const { return fallback_episodes_; }
  [[nodiscard]] std::int64_t packets_sent_via_tcp() const { return packets_via_tcp_; }

  void set_on_finished(std::function<void()> cb) { on_finished_ = std::move(cb); }

 private:
  enum class Mode { kUdp, kTcpFallback };

  void step();
  /// Hands one ACK datagram's payload to the session; returns its wire
  /// bytes, or 0 when the payload is not an ACK.
  std::int64_t take_ack(const std::any& payload);
  void on_control_message(const std::any& message);
  void enter_fallback();
  void exit_fallback();
  void pump_tcp();
  void probe_tick();

  Host& host_;
  TransferSpec spec_;
  SenderSession session_;
  const std::uint8_t* data_;
  NodeId receiver_node_;
  PortId port_base_;
  fobs::net::UdpEndpoint data_out_;
  fobs::net::UdpEndpoint ack_in_;
  fobs::net::TcpListener completion_listener_;
  std::unique_ptr<fobs::net::TcpConnection> control_conn_;
  bool started_ = false;
  bool finished_ = false;
  bool step_scheduled_ = false;
  TimePoint finished_at_;
  std::function<void()> on_finished_;
  // --- §7 TCP-fallback state ---
  Mode mode_ = Mode::kUdp;
  std::unique_ptr<fobs::net::TcpConnection> tcp_data_;
  PacketSeq tcp_cursor_ = 0;
  int fallback_episodes_ = 0;
  std::int64_t packets_via_tcp_ = 0;
  std::uint64_t probe_rtx_snapshot_ = 0;
  int probe_clear_streak_ = 0;
};

/// Receiver-side driver: poll loop with ACK generation.
class SimReceiver {
 public:
  /// @param buffer receive buffer of `spec.object_bytes` bytes (may be
  ///        null for size-only runs); must outlive the driver.
  /// @param socket_buffer_bytes UDP receive socket buffer — the overflow
  ///        point that models Figure 1's ACK-stall losses.
  SimReceiver(Host& host, TransferSpec spec, ReceiverConfig config, std::uint8_t* buffer,
              NodeId sender_node, std::int64_t socket_buffer_bytes,
              PortId port_base = kFobsPortBase);

  /// Opens the TCP control connection and starts polling.
  void start();

  /// The recovery session, as for SimSender; the driver adds ack_sent
  /// and drop_while_acking events. With a fault plan the receiver goes
  /// silent at its crash point; the data schedule is the sender's.
  [[nodiscard]] ReceiverSession& session() { return session_; }
  [[nodiscard]] const ReceiverSession& session() const { return session_; }

  [[nodiscard]] const ReceiverCore& core() const { return session_.core(); }
  [[nodiscard]] bool complete() const { return session_.core().complete(); }
  [[nodiscard]] TimePoint completed_at() const { return completed_at_; }
  /// Packets dropped because the socket buffer overflowed while the
  /// receiver was busy.
  [[nodiscard]] std::uint64_t socket_drops() const { return data_in_.stats().rx_overflow_drops; }
  [[nodiscard]] std::uint64_t acks_sent() const { return acks_sent_; }

 private:
  void step();
  /// Shared handling for a data packet, whatever channel it arrived on.
  /// Returns the CPU time consumed.
  Duration process_packet(const DataPacketPayload& payload);
  void on_tcp_data(const std::any& message);

  Host& host_;
  TransferSpec spec_;
  ReceiverSession session_;
  std::uint8_t* buffer_;
  NodeId sender_node_;
  PortId port_base_;
  fobs::net::UdpEndpoint data_in_;
  fobs::net::UdpEndpoint ack_out_;
  fobs::net::TcpConnection control_conn_;
  fobs::net::TcpListener fallback_listener_;
  std::unique_ptr<fobs::net::TcpConnection> fallback_conn_;
  bool started_ = false;
  TimePoint completed_at_;
  std::uint64_t acks_sent_ = 0;
  std::uint64_t traced_drops_ = 0;
};

}  // namespace fobs::core
