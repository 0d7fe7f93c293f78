#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <thread>

namespace fobs::net {

namespace {

bool retryable(int err) { return err == EWOULDBLOCK || err == EAGAIN || err == EINTR; }

void wait_for(int fd, short events) {
  pollfd pfd{fd, events, 0};
  ::poll(&pfd, 1, 10);
}

}  // namespace

Fd& Fd::operator=(Fd&& other) noexcept {
  if (this != &other) {
    reset();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Fd::reset() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

std::optional<sockaddr_in> make_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) return std::nullopt;
  return addr;
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

Fd listen_tcp(std::uint16_t port, int backlog) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return {};
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  const sockaddr_in addr = *make_addr("0.0.0.0", port);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd.get(), backlog) != 0 || !set_nonblocking(fd.get())) {
    return {};
  }
  return fd;
}

Fd listen_tcp_in_range(std::uint16_t base, std::uint16_t count, int backlog) {
  if (base == 0) return listen_tcp(0, backlog);
  const std::uint32_t end = std::min<std::uint32_t>(std::uint32_t{base} + count, 0x1'0000u);
  for (std::uint32_t port = base; port < end; ++port) {
    if (Fd fd = listen_tcp(static_cast<std::uint16_t>(port), backlog); fd.valid()) return fd;
  }
  return {};
}

Fd bind_udp(std::uint16_t port) {
  Fd fd(::socket(AF_INET, SOCK_DGRAM, 0));
  if (!fd.valid()) return {};
  const sockaddr_in addr = *make_addr("0.0.0.0", port);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) return {};
  return fd;
}

std::uint16_t local_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) return 0;
  return ntohs(addr.sin_port);
}

Fd accept_until(int listener, SocketClock::time_point deadline, std::string* peer_host) {
  for (;;) {
    sockaddr_in peer{};
    socklen_t peer_len = sizeof peer;
    Fd conn(::accept(listener, reinterpret_cast<sockaddr*>(&peer), &peer_len));
    if (conn.valid()) {
      set_nonblocking(conn.get());
      if (peer_host != nullptr) {
        char host[INET_ADDRSTRLEN] = {0};
        ::inet_ntop(AF_INET, &peer.sin_addr, host, sizeof host);
        *peer_host = host;
      }
      return conn;
    }
    if (SocketClock::now() >= deadline) return {};
    wait_for(listener, POLLIN);
  }
}

Fd connect_with_backoff(const std::string& host, std::uint16_t port,
                        SocketClock::time_point deadline, const std::atomic<bool>* cancel) {
  auto backoff = std::chrono::milliseconds(5);
  constexpr auto kMaxBackoff = std::chrono::milliseconds(200);
  const auto addr = make_addr(host, port);
  if (!addr) return {};
  while (SocketClock::now() < deadline &&
         (cancel == nullptr || !cancel->load(std::memory_order_relaxed))) {
    Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd.valid()) return {};
    if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&*addr), sizeof *addr) == 0) {
      set_nonblocking(fd.get());
      return fd;
    }
    // A failed connect() leaves the socket in an unspecified state; the
    // next attempt starts over with a fresh one.
    fd.reset();
    std::this_thread::sleep_for(backoff);
    backoff = std::min(backoff * 2, kMaxBackoff);
  }
  return {};
}

bool send_all(int fd, const void* data, std::size_t len, SocketClock::time_point deadline) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::send(fd, bytes + off, len - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0 || !retryable(errno) || SocketClock::now() >= deadline) return false;
    wait_for(fd, POLLOUT);
  }
  return true;
}

bool read_exact(int fd, void* out, std::size_t len, SocketClock::time_point deadline) {
  auto* bytes = static_cast<std::uint8_t*>(out);
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::recv(fd, bytes + off, len - off, 0);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) return false;  // peer closed mid-frame
    if (!retryable(errno) || SocketClock::now() >= deadline) return false;
    wait_for(fd, POLLIN);
  }
  return true;
}

}  // namespace fobs::net
