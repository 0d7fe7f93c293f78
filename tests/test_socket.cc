// Unit tests for the shared stream-socket helpers (net/socket.h): the
// deadline, EOF and backoff behaviour every TCP exchange of the
// real-socket drivers relies on, and listen_tcp_in_range, the one rule
// for control-port ranges. Listeners bind port 0 where they can; the
// range tests take their ports from test_ports.h.
#include "net/socket.h"

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "test_ports.h"

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

/// A loopback port nothing listens on: bound (so no one else takes it)
/// but never put into listen state, so connects are refused.
Fd refused_port(std::uint16_t& port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  const sockaddr_in addr = *make_addr("127.0.0.1", 0);
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

// ---------------------------------------------------------------------------
// listen_tcp_in_range
// ---------------------------------------------------------------------------

TEST(RangeBind, SkipsAPortAlreadyTakenInsideTheRange) {
  const std::uint16_t base = test::port(0);
  const Fd taken = listen_tcp(base, 1);
  ASSERT_TRUE(taken.valid());
  const Fd next = listen_tcp_in_range(base, 4, 1);
  ASSERT_TRUE(next.valid());
  EXPECT_EQ(local_port(next.get()), base + 1);
}

TEST(RangeBind, FailsWhenEveryPortOfTheRangeIsTaken) {
  const std::uint16_t base = test::port(8);
  std::vector<Fd> held;
  for (int i = 0; i < 3; ++i) {
    held.push_back(listen_tcp_in_range(base, 3, 1));
    ASSERT_TRUE(held.back().valid());
    EXPECT_EQ(local_port(held.back().get()), base + i);
  }
  EXPECT_FALSE(listen_tcp_in_range(base, 3, 1).valid());
  // An empty range never binds.
  EXPECT_FALSE(listen_tcp_in_range(test::port(12), 0, 1).valid());
  // A closed listener's port is the next one handed out.
  held[1].reset();
  const Fd again = listen_tcp_in_range(base, 3, 1);
  ASSERT_TRUE(again.valid());
  EXPECT_EQ(local_port(again.get()), base + 1);
}

TEST(RangeBind, RangePastPortMaxIsClampedNotWrapped) {
  // 65530 + 100 would wrap uint16_t arithmetic onto low ports; the
  // range is clamped to 65530..65535 instead. Other programs may hold
  // some of those, so only the bounds are exact.
  std::vector<Fd> held;
  for (int i = 0; i < 10; ++i) {
    Fd fd = listen_tcp_in_range(65'530, 100, 1);
    if (!fd.valid()) break;
    EXPECT_GE(local_port(fd.get()), 65'530);
    held.push_back(std::move(fd));
  }
  EXPECT_LE(held.size(), 6u);
  EXPECT_FALSE(listen_tcp_in_range(65'530, 100, 1).valid());
}

TEST(RangeBind, BaseZeroReportsTheKernelsPort) {
  const Fd listener = listen_tcp_in_range(0, 8, 1);
  ASSERT_TRUE(listener.valid());
  const std::uint16_t port = local_port(listener.get());
  EXPECT_NE(port, 0);
  const Fd client(::socket(AF_INET, SOCK_STREAM, 0));
  const sockaddr_in addr = *make_addr("127.0.0.1", port);
  EXPECT_EQ(::connect(client.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  EXPECT_EQ(local_port(-1), 0);
}

TEST(MakeAddr, RejectsAnythingButAnIPv4Literal) {
  const auto addr = make_addr("127.0.0.1", 7);
  ASSERT_TRUE(addr.has_value());
  EXPECT_EQ(ntohs(addr->sin_port), 7);
  for (const char* host : {"no-such-host.invalid", "localhost", "", "::1", "127.0.0.256"}) {
    EXPECT_FALSE(make_addr(host, 7).has_value()) << host;
  }
  // connect_with_backoff gives up at once instead of retrying a host it
  // cannot parse until the deadline.
  const auto start = SocketClock::now();
  EXPECT_FALSE(connect_with_backoff("no-such-host.invalid", 7, start + milliseconds(2'000)).valid());
  EXPECT_LT(SocketClock::now() - start, milliseconds(500));
}

}  // namespace
}  // namespace fobs::net
