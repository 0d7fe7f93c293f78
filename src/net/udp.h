// UDP-like datagram endpoint over the simulated network.
//
// Mirrors the sockets API surface the paper's implementation used
// (Winsock2 / BSD sockets in non-blocking mode):
//  * `send_to` returns false when the NIC/socket send buffer is full —
//    the caller then waits for writability, which is what the paper's
//    "select system call is used to ensure adequate buffer space" does.
//  * Received datagrams land in a byte-bounded socket buffer; when the
//    application is not draining it (e.g. a FOBS receiver busy building
//    an acknowledgement), arrivals overflow and are silently dropped —
//    the loss mechanism behind Figure 1.
#pragma once

#include <any>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>

#include "host/host.h"
#include "sim/packet.h"

namespace fobs::net {

using fobs::host::Host;
using fobs::sim::NodeId;
using fobs::sim::Packet;
using fobs::sim::PortId;

struct UdpStats {
  std::uint64_t datagrams_sent = 0;
  std::uint64_t send_would_block = 0;
  std::uint64_t datagrams_received = 0;  ///< accepted into the buffer
  std::uint64_t rx_overflow_drops = 0;
  std::int64_t bytes_sent = 0;
  std::int64_t bytes_received = 0;
};

class UdpEndpoint final : public fobs::host::PortHandler {
 public:
  /// Binds to `port` on `host` (0 picks an ephemeral port).
  /// `rx_buffer_bytes` of 0 uses the host default.
  UdpEndpoint(Host& host, PortId port = 0, std::int64_t rx_buffer_bytes = 0);
  ~UdpEndpoint() override;

  UdpEndpoint(const UdpEndpoint&) = delete;
  UdpEndpoint& operator=(const UdpEndpoint&) = delete;

  [[nodiscard]] PortId port() const { return port_; }
  [[nodiscard]] Host& host() { return host_; }

  /// Sends one datagram of `payload_bytes` application bytes (wire size
  /// adds UDP/IP overhead). Returns false — like EWOULDBLOCK — when the
  /// send buffer (NIC queue) cannot take the datagram, counted as one
  /// would-block.
  bool send_to(NodeId dst, PortId dst_port, std::int64_t payload_bytes, std::any payload);

  /// True when `send_to` for a datagram of this size would succeed.
  [[nodiscard]] bool writable(std::int64_t payload_bytes) const;

  /// Non-blocking receive; returns the oldest buffered datagram.
  std::optional<Packet> try_recv();
  [[nodiscard]] bool has_data() const { return !rx_queue_.empty(); }
  [[nodiscard]] std::size_t buffered_datagrams() const { return rx_queue_.size(); }
  [[nodiscard]] std::int64_t buffered_bytes() const { return rx_bytes_; }

  /// One-shot callback on the arrival of a datagram into an empty
  /// buffer. Drivers use it to resume a poll loop without busy-waiting.
  void set_rx_notify(std::function<void()> cb) { rx_notify_ = std::move(cb); }

  void handle_packet(Packet packet) override;

  [[nodiscard]] const UdpStats& stats() const { return stats_; }

 private:
  Host& host_;
  PortId port_;
  std::int64_t rx_capacity_bytes_;
  std::deque<Packet> rx_queue_;
  std::int64_t rx_bytes_ = 0;
  std::function<void()> rx_notify_;
  UdpStats stats_;
};

}  // namespace fobs::net
