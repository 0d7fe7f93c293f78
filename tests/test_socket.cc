// Unit tests for the shared stream-socket helpers (net/socket.h): the
// deadline, EOF and backoff behaviour every TCP exchange of the
// real-socket drivers relies on. Listeners bind port 0, so the suite
// needs no fixed ports.
#include "net/socket.h"

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace fobs::net {
namespace {

using std::chrono::milliseconds;

/// A connected, non-blocking AF_UNIX stream pair.
struct StreamPair {
  Fd a;
  Fd b;
};

StreamPair stream_pair() {
  int fds[2] = {-1, -1};
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  StreamPair pair{Fd(fds[0]), Fd(fds[1])};
  EXPECT_TRUE(set_nonblocking(pair.a.get()));
  EXPECT_TRUE(set_nonblocking(pair.b.get()));
  return pair;
}

std::uint16_t local_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  return ntohs(addr.sin_port);
}

/// A loopback port nothing listens on: bound (so no one else takes it)
/// but never put into listen state, so connects are refused.
Fd refused_port(std::uint16_t& port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  const sockaddr_in addr = make_addr("127.0.0.1", 0);
  EXPECT_EQ(::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  port = local_port(fd.get());
  return fd;
}

TEST(Socket, ReadExactFailsOnEofMidFrame) {
  auto pair = stream_pair();
  const std::uint8_t partial[3] = {1, 2, 3};
  ASSERT_TRUE(send_all(pair.a.get(), partial, sizeof partial,
                       SocketClock::now() + milliseconds(1000)));
  pair.a.reset();  // peer closes three bytes into an eight-byte frame
  std::uint8_t frame[8] = {};
  const auto start = SocketClock::now();
  EXPECT_FALSE(read_exact(pair.b.get(), frame, sizeof frame, start + milliseconds(30'000)));
  EXPECT_LT(SocketClock::now() - start, milliseconds(5000));  // at the EOF, not the deadline
  EXPECT_EQ(frame[2], 3);
}

TEST(Socket, ReadExactGivesUpAtDeadlineWhenPeerIsSilent) {
  auto pair = stream_pair();
  std::uint8_t frame[8] = {};
  const auto start = SocketClock::now();
  EXPECT_FALSE(read_exact(pair.b.get(), frame, sizeof frame, start + milliseconds(60)));
  const auto waited = SocketClock::now() - start;
  EXPECT_GE(waited, milliseconds(60));
  EXPECT_LT(waited, milliseconds(2000));
}

TEST(Socket, SendAllAndReadExactRoundTripAFrameLargerThanTheSocketBuffer) {
  auto pair = stream_pair();
  const int small = 4096;
  ::setsockopt(pair.a.get(), SOL_SOCKET, SO_SNDBUF, &small, sizeof small);
  ::setsockopt(pair.b.get(), SOL_SOCKET, SO_RCVBUF, &small, sizeof small);
  std::vector<std::uint8_t> sent(1 << 20);
  for (std::size_t i = 0; i < sent.size(); ++i) sent[i] = static_cast<std::uint8_t>(i * 7 + 1);
  const auto deadline = SocketClock::now() + milliseconds(20'000);
  bool sent_ok = false;
  std::thread writer(
      [&] { sent_ok = send_all(pair.a.get(), sent.data(), sent.size(), deadline); });
  std::vector<std::uint8_t> received(sent.size());
  EXPECT_TRUE(read_exact(pair.b.get(), received.data(), received.size(), deadline));
  writer.join();
  EXPECT_TRUE(sent_ok);
  EXPECT_EQ(received, sent);
}

TEST(Socket, ConnectWithBackoffGivesUpAtDeadline) {
  std::uint16_t port = 0;
  const Fd holder = refused_port(port);
  const auto start = SocketClock::now();
  const Fd fd = connect_with_backoff("127.0.0.1", port, start + milliseconds(150));
  const auto waited = SocketClock::now() - start;
  EXPECT_FALSE(fd.valid());
  EXPECT_GE(waited, milliseconds(150));
  // The last sleep may overrun the deadline by at most one backoff step.
  EXPECT_LT(waited, milliseconds(150 + 200 + 1000));
}

TEST(Socket, ConnectWithBackoffStopsWithinOneBackoffStepAfterCancel) {
  std::uint16_t port = 0;
  const Fd holder = refused_port(port);
  std::atomic<bool> cancel{false};
  SocketClock::time_point cancelled_at;
  std::thread canceller([&] {
    std::this_thread::sleep_for(milliseconds(400));  // backoff has reached its 200 ms cap
    cancelled_at = SocketClock::now();
    cancel.store(true);
  });
  const auto deadline = SocketClock::now() + milliseconds(30'000);
  const Fd fd = connect_with_backoff("127.0.0.1", port, deadline, &cancel);
  const auto returned_at = SocketClock::now();
  canceller.join();
  EXPECT_FALSE(fd.valid());
  EXPECT_LT(returned_at - cancelled_at, milliseconds(200 + 800));
}

TEST(Socket, ConnectWithBackoffAndAcceptUntilPairUpAndNameThePeer) {
  const Fd listener = listen_tcp(0, 1);
  ASSERT_TRUE(listener.valid());
  const std::uint16_t port = local_port(listener.get());
  // Nobody has connected yet: a past deadline makes one attempt only.
  EXPECT_FALSE(accept_until(listener.get(), SocketClock::time_point::min()).valid());

  const auto deadline = SocketClock::now() + milliseconds(5000);
  const Fd client = connect_with_backoff("127.0.0.1", port, deadline);
  ASSERT_TRUE(client.valid());
  std::string peer_host;
  const Fd server = accept_until(listener.get(), deadline, &peer_host);
  ASSERT_TRUE(server.valid());
  EXPECT_EQ(peer_host, "127.0.0.1");
  const std::uint8_t hello[4] = {'F', 'O', 'B', 'S'};
  ASSERT_TRUE(send_all(client.get(), hello, sizeof hello, deadline));
  std::uint8_t got[4] = {};
  ASSERT_TRUE(read_exact(server.get(), got, sizeof got, deadline));
  EXPECT_EQ(got[3], 'S');
}

TEST(Socket, ListenTcpFailsWhenThePortIsAlreadyBound) {
  const Fd first = listen_tcp(0, 1);
  ASSERT_TRUE(first.valid());
  const Fd second = listen_tcp(local_port(first.get()), 1);
  EXPECT_FALSE(second.valid());
}

}  // namespace
}  // namespace fobs::net
