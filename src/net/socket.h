// POSIX stream-socket helpers for the real-socket drivers.
//
// Every TCP connection FOBS opens — the control channel of a transfer,
// the FOBSSTRP stripe negotiation, the file server's catalog — goes
// through these few functions, so the I/O policy lives in one place:
//  * stream sockets are non-blocking and every read or write carries a
//    deadline, waiting on poll() in 10 ms steps so callers stay
//    responsive to their own cancel and stall checks;
//  * a port is advertised only once something listens on it (or, for
//    a UDP data port, once it is bound), and listen_tcp_in_range holds
//    the one rule for port ranges;
//  * a connect retries on a fresh socket with capped exponential
//    backoff (5 ms doubling to 200 ms), for a peer that is restarting
//    or has not started yet.
// The datagram side is net::DatagramChannel; bind_udp is its one bind.
#pragma once

#include <netinet/in.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace fobs::net {

using SocketClock = std::chrono::steady_clock;

/// RAII file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept;
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  void reset();

 private:
  int fd_ = -1;
};

/// IPv4 socket address for a dotted-quad `host` and `port`; nullopt
/// when `host` is not an IPv4 literal (names are not resolved).
[[nodiscard]] std::optional<sockaddr_in> make_addr(const std::string& host, std::uint16_t port);

bool set_nonblocking(int fd);

/// Non-blocking TCP listener on 0.0.0.0:`port` (SO_REUSEADDR set);
/// port 0 lets the kernel choose. Invalid Fd when the socket cannot be
/// created, bound or listened on.
[[nodiscard]] Fd listen_tcp(std::uint16_t port, int backlog);

/// listen_tcp on the first free port of [base, base + count), the range
/// clamped at port 65535; base 0 lets the kernel choose. Invalid Fd when
/// every port of the range is taken. This is the one rule for port
/// ranges: the kernel says which ports are free, so nothing has to
/// track leases, and a port is known only once something listens on it.
[[nodiscard]] Fd listen_tcp_in_range(std::uint16_t base, std::uint16_t count, int backlog);

/// UDP socket bound to 0.0.0.0:`port`; port 0 lets the kernel choose.
/// Invalid Fd when the socket cannot be created or bound. Bind first,
/// name net::local_port() to the peer after, then wrap it with
/// DatagramChannel::open.
[[nodiscard]] Fd bind_udp(std::uint16_t port);

/// The local port `fd` is bound to; 0 when it is not bound.
[[nodiscard]] std::uint16_t local_port(int fd);

/// Accepts one connection on a non-blocking `listener`, waiting until
/// `deadline`; a deadline already past makes exactly one attempt. The
/// connection comes back non-blocking, with the peer's dotted-quad
/// address in `peer_host` when that is non-null. Invalid Fd when
/// nobody connected in time.
[[nodiscard]] Fd accept_until(int listener, SocketClock::time_point deadline,
                              std::string* peer_host = nullptr);

/// Connects to host:port, retrying with capped exponential backoff
/// until `deadline` or until `cancel` (optional) is set. The connection
/// comes back non-blocking. Invalid Fd on failure, at once when `host`
/// is not an IPv4 literal.
[[nodiscard]] Fd connect_with_backoff(const std::string& host, std::uint16_t port,
                                      SocketClock::time_point deadline,
                                      const std::atomic<bool>* cancel = nullptr);

/// Writes all `len` bytes to a stream socket, waiting for writability,
/// until done, a hard error, or `deadline`.
bool send_all(int fd, const void* data, std::size_t len, SocketClock::time_point deadline);

/// Reads exactly `len` bytes from a stream socket. False on EOF before
/// the last byte, a hard error, or `deadline`.
bool read_exact(int fd, void* out, std::size_t len, SocketClock::time_point deadline);

}  // namespace fobs::net
