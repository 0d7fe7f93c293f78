// Fixed loopback ports for the real-socket suites.
//
// A listener that only needs *some* port binds port 0 and reads it
// back. What must still be named in advance — a receiver's UDP data
// ports, the control port of a direct-API session pair, an explicit
// control-port range — comes from port() below. Each test process
// claims its own block of kBlockSize ports outside the kernel's
// ephemeral range (ip_local_port_range), so neither an outgoing
// connection nor a concurrently running test process can hold them:
// the claim is a TCP listener on the block's first port, kept for the
// life of the process, so the kernel settles which process owns which
// block. Blocks stay below port 65000, clear of the range-clamping
// tests at the top of the port space.
#pragma once

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <vector>

#include "net/socket.h"

namespace fobs::test {

inline constexpr int kBlockSize = 128;

namespace detail {

inline std::uint16_t claim_block() {
  int lo = 32768;
  int hi = 60999;
  {
    std::ifstream in("/proc/sys/net/ipv4/ip_local_port_range");
    int a = 0;
    int b = 0;
    if (in >> a >> b && a > 0 && b >= a && b <= 65535) {
      lo = a;
      hi = b;
    }
  }
  std::vector<int> starts;
  for (int p = 10000; p + kBlockSize <= lo; p += kBlockSize) starts.push_back(p);
  for (int p = hi + 1; p + kBlockSize <= 65000; p += kBlockSize) starts.push_back(p);
  // Start at a pid-dependent block so parallel processes rarely probe
  // the same ones; the claim itself is what makes them distinct.
  static net::Fd claim;
  const std::size_t first = static_cast<std::size_t>(::getpid()) * 7919u;
  for (std::size_t i = 0; i < starts.size(); ++i) {
    const int start = starts[(first + i) % starts.size()];
    net::Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
    const sockaddr_in addr = *net::make_addr("0.0.0.0", static_cast<std::uint16_t>(start));
    if (fd.valid() &&
        ::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0 &&
        ::listen(fd.get(), 1) == 0) {
      claim = std::move(fd);
      return static_cast<std::uint16_t>(start);
    }
  }
  std::abort();  // every block outside the ephemeral range is taken
}

}  // namespace detail

/// Port `offset` (0 .. kBlockSize - 2) of this process's block.
inline std::uint16_t port(int offset) {
  static const std::uint16_t block = detail::claim_block();
  return static_cast<std::uint16_t>(block + 1 + offset);
}

}  // namespace fobs::test
