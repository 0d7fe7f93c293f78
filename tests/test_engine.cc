// TransferEngine: many concurrent FOBS sessions in one process. The
// heart of the suite is the isolation test — three simultaneous
// transfers of different sizes (one under fault injection), all
// byte-identical, with per-session traces and results that never bleed
// into each other. Plus handle lifecycle (wait/status/cancel), engine
// counters, and the rendezvous: a sender's control port accepts from
// the moment submit_send returns, and is free again once the session
// is terminal.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "fobs/posix/engine.h"
#include "fobs/sim_transfer.h"
#include "net/socket.h"
#include "test_ports.h"

namespace fobs {
namespace {

/// Lines of the JSONL trace at `path` that record `event`; -1 when the
/// file is missing.
int count_trace_events(const std::string& path, const std::string& event) {
  std::ifstream in(path);
  if (!in) return -1;
  const std::string needle = "\"event\":\"" + event + "\"";
  int count = 0;
  for (std::string line; std::getline(in, line);) {
    if (line.find(needle) != std::string::npos) ++count;
  }
  return count;
}

// ---------------------------------------------------------------------------
// Satellite: >= 3 simultaneous transfers, isolated per-session state
// ---------------------------------------------------------------------------

TEST(EngineConcurrency, ThreeSimultaneousTransfersAreByteIdenticalAndIsolated) {
  // Three pairs, mixed sizes, the middle one under 2% data corruption.
  // Six sessions run at once on one engine; every sink must match its
  // object and only the faulted pair may report corrupt drops.
  const std::vector<std::int64_t> sizes = {256 * 1024, 1024 * 1024 + 13, 512 * 1024};
  std::vector<std::vector<std::uint8_t>> objects;
  std::vector<std::vector<std::uint8_t>> sinks;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    objects.push_back(core::make_pattern(sizes[i], 0xE61 + static_cast<int>(i)));
    sinks.emplace_back(objects.back().size(), 0);
  }

  const std::string trace_dir = ::testing::TempDir() + "fobs_engine_traces";
  std::filesystem::remove_all(trace_dir);
  std::filesystem::create_directories(trace_dir);
  posix::TransferEngine engine({.workers = 6, .trace_dir = trace_dir});
  std::vector<posix::TransferHandle> rx;
  std::vector<posix::TransferHandle> tx;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    posix::ReceiverOptions ropt;
    ropt.data_port = test::port(static_cast<int>(2 * i));
    ropt.control_port = test::port(static_cast<int>(2 * i + 1));
    ropt.core.ack_frequency = 16;
    ropt.endpoint.timeout_ms = 30'000;
    posix::SenderOptions sopt;
    sopt.data_port = ropt.data_port;
    sopt.control_port = ropt.control_port;
    sopt.endpoint.timeout_ms = 30'000;
    if (i == 1) sopt.endpoint.fault_plan = "seed=7;data.corrupt=0.02";
    rx.push_back(engine.submit_receive(ropt, std::span<std::uint8_t>(sinks[i])));
    tx.push_back(engine.submit_send(sopt, std::span<const std::uint8_t>(objects[i])));
  }
  ASSERT_EQ(engine.sessions_submitted(), 2 * sizes.size());

  for (std::size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_EQ(rx[i].wait(), posix::TransferStatus::kCompleted)
        << "receiver " << i << ": " << rx[i].receiver_result().error;
    EXPECT_EQ(tx[i].wait(), posix::TransferStatus::kCompleted)
        << "sender " << i << ": " << tx[i].sender_result().error;
    EXPECT_EQ(sinks[i], objects[i]) << "pair " << i << " not byte-identical";
  }
  engine.wait_idle();
  EXPECT_EQ(engine.active_sessions(), 0u);
  EXPECT_EQ(engine.sessions_completed(), 2 * sizes.size());
  EXPECT_EQ(engine.sessions_failed(), 0u);

  // Result isolation: only the faulted pair saw corruption.
  EXPECT_GT(rx[1].receiver_result().corrupt_packets_dropped, 0);
  EXPECT_EQ(rx[0].receiver_result().corrupt_packets_dropped, 0);
  EXPECT_EQ(rx[2].receiver_result().corrupt_packets_dropped, 0);
  // Per-pair packet counts reflect each pair's own object, not a shared
  // tally.
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_EQ(rx[i].receiver_result().packets_received, (sizes[i] + 1023) / 1024)
        << "pair " << i;
  }

  // Trace isolation: six engine-written trace files (one per session
  // id, written before the session turned terminal), each telling
  // exactly one session's story.
  auto trace_path = [&](const posix::TransferHandle& handle) {
    return trace_dir + "/session_" + std::to_string(handle.id()) + "_s0.jsonl";
  };
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_EQ(count_trace_events(trace_path(rx[i]), "transfer_start"), 1) << "receiver " << i;
    EXPECT_EQ(count_trace_events(trace_path(tx[i]), "transfer_start"), 1) << "sender " << i;
    EXPECT_GE(count_trace_events(trace_path(rx[i]), "completion"), 1) << "receiver " << i;
    EXPECT_EQ(count_trace_events(trace_path(rx[i]), "timeout"), 0) << "receiver " << i;
  }
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(trace_dir),
                          std::filesystem::directory_iterator()),
            2 * static_cast<std::ptrdiff_t>(sizes.size()));
  std::filesystem::remove_all(trace_dir);
}

// ---------------------------------------------------------------------------
// Handle lifecycle
// ---------------------------------------------------------------------------

TEST(EngineHandle, IdsAreUniqueAndStatusTurnsTerminal) {
  const auto object = core::make_pattern(64 * 1024, 0x1D5);
  std::vector<std::uint8_t> sink(object.size(), 0);

  posix::ReceiverOptions ropt;
  ropt.data_port = test::port(20);
  ropt.control_port = test::port(21);
  ropt.endpoint.timeout_ms = 30'000;
  posix::SenderOptions sopt;
  sopt.data_port = ropt.data_port;
  sopt.control_port = ropt.control_port;
  sopt.endpoint.timeout_ms = 30'000;

  posix::TransferEngine engine({.workers = 2});
  auto rx = engine.submit_receive(ropt, std::span<std::uint8_t>(sink));
  auto tx = engine.submit_send(sopt, std::span<const std::uint8_t>(object));
  ASSERT_TRUE(rx.valid());
  ASSERT_TRUE(tx.valid());
  EXPECT_NE(rx.id(), tx.id());
  EXPECT_FALSE(rx.is_sender());
  EXPECT_TRUE(tx.is_sender());

  EXPECT_TRUE(rx.wait_for(std::chrono::milliseconds(30'000)));
  EXPECT_EQ(tx.wait(), posix::TransferStatus::kCompleted);
  EXPECT_TRUE(rx.done());
  EXPECT_TRUE(tx.done());
  EXPECT_TRUE(tx.sender_result().completed());
  EXPECT_TRUE(rx.receiver_result().completed());
  EXPECT_EQ(sink, object);
  // Results outlive the engine through the handle.
  EXPECT_EQ(to_string(rx.status()), std::string("completed"));
}

TEST(EngineHandle, CancelStopsAWaitingSession) {
  // A receiver with no sender would otherwise wait out its full
  // 30-second timeout; cancel() must end it promptly.
  std::vector<std::uint8_t> sink(64 * 1024, 0);
  posix::ReceiverOptions ropt;
  ropt.data_port = test::port(24);
  ropt.control_port = test::port(25);
  ropt.endpoint.timeout_ms = 30'000;

  posix::TransferEngine engine({.workers = 1});
  auto handle = engine.submit_receive(ropt, std::span<std::uint8_t>(sink));
  const auto start = std::chrono::steady_clock::now();
  // Let the session actually start before cancelling it.
  while (handle.status() == posix::TransferStatus::kPending &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(5)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  handle.cancel();
  const auto status = handle.wait();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_EQ(status, posix::TransferStatus::kCancelled);
  EXPECT_FALSE(handle.receiver_result().completed());
  EXPECT_LT(elapsed, 10'000) << "cancel should not wait out the 30 s timeout";
}

TEST(EngineHandle, BadOptionsSessionTurnsTerminalWithBadOptions) {
  std::vector<std::uint8_t> sink(1024, 0);
  posix::TransferEngine engine({.workers = 1});
  auto handle = engine.submit_receive(posix::ReceiverOptions{},  // no ports
                                      std::span<std::uint8_t>(sink));
  EXPECT_EQ(handle.wait(), posix::TransferStatus::kBadOptions);
  EXPECT_FALSE(handle.receiver_result().error.empty());
  engine.wait_idle();
  EXPECT_EQ(engine.sessions_failed(), 1u);
  EXPECT_EQ(engine.sessions_completed(), 0u);
}

TEST(EngineHandle, InvalidHandleAccessorsAreSafe) {
  // A default-constructed handle has no session; every accessor must
  // degrade gracefully instead of dereferencing null.
  posix::TransferHandle handle;
  EXPECT_FALSE(handle.valid());
  EXPECT_EQ(handle.id(), 0u);
  EXPECT_EQ(handle.status(), posix::TransferStatus::kPending);
  EXPECT_FALSE(handle.done());
  EXPECT_FALSE(handle.wait_for(std::chrono::milliseconds(1)));
  handle.cancel();  // no-op
  EXPECT_FALSE(handle.sender_result().completed());
  EXPECT_FALSE(handle.receiver_result().completed());
  EXPECT_TRUE(handle.sender_result().error.empty());
}

TEST(EngineLifecycle, DestructorCancelsLiveSessions) {
  // An engine with a stuck session must tear down promptly instead of
  // waiting out the session's timeout.
  std::vector<std::uint8_t> sink(64 * 1024, 0);
  posix::ReceiverOptions ropt;
  ropt.data_port = test::port(28);
  ropt.control_port = test::port(29);
  ropt.endpoint.timeout_ms = 30'000;

  posix::TransferHandle handle;
  const auto start = std::chrono::steady_clock::now();
  {
    posix::TransferEngine engine({.workers = 1});
    handle = engine.submit_receive(ropt, std::span<std::uint8_t>(sink));
  }
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_TRUE(handle.done());
  EXPECT_EQ(handle.status(), posix::TransferStatus::kCancelled);
  EXPECT_LT(elapsed, 10'000);
}

// ---------------------------------------------------------------------------
// Rendezvous: a sender listens from submit_send on
// ---------------------------------------------------------------------------

/// One connect() attempt to 127.0.0.1:`port`, no retry.
bool connects_at_once(std::uint16_t port) {
  net::Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  const sockaddr_in addr = *net::make_addr("127.0.0.1", port);
  return fd.valid() &&
         ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0;
}

TEST(EngineRendezvous, QueuedSenderAcceptsItsFirstConnect) {
  // The only worker is busy with a receiver whose sender never comes,
  // so the sender session below cannot start. Its control port must
  // accept all the same: submit_send listened before queueing it.
  std::vector<std::uint8_t> sink(64 * 1024, 0);
  posix::ReceiverOptions blocker;
  blocker.data_port = test::port(50);
  blocker.control_port = test::port(51);  // nobody listens here
  blocker.endpoint.timeout_ms = 30'000;
  const auto object = core::make_pattern(64 * 1024, 0x5E55);
  posix::SenderOptions sopt;
  sopt.data_port = test::port(52);
  sopt.control_port = test::port(53);
  sopt.endpoint.timeout_ms = 30'000;

  posix::TransferEngine engine({.workers = 1});
  auto busy = engine.submit_receive(blocker, std::span<std::uint8_t>(sink));
  auto queued = engine.submit_send(sopt, std::span<const std::uint8_t>(object));
  EXPECT_EQ(queued.status(), posix::TransferStatus::kPending);
  EXPECT_TRUE(connects_at_once(sopt.control_port))
      << "a queued sender's control port refused the receiver's first connect";
  // The session holds its port while it lives...
  EXPECT_FALSE(net::listen_tcp(sopt.control_port, 1).valid());
  EXPECT_EQ(queued.status(), posix::TransferStatus::kPending);

  engine.cancel_all();
  EXPECT_EQ(queued.wait(), posix::TransferStatus::kCancelled);
  busy.wait();
  // ...and gives it back before it turns terminal.
  EXPECT_TRUE(net::listen_tcp(sopt.control_port, 1).valid());
}

TEST(EngineRendezvous, SessionPortBindsAgainOnceTheSessionEnds) {
  // A completed transfer, then a failed one on the same control port:
  // the second bind only works if the first session closed its
  // listener before turning terminal.
  const auto object = core::make_pattern(32 * 1024, 0xB1D);
  posix::TransferEngine engine({.workers = 2});
  for (int round = 0; round < 2; ++round) {
    std::vector<std::uint8_t> sink(object.size(), 0);
    posix::ReceiverOptions ropt;
    ropt.data_port = test::port(54);
    ropt.control_port = test::port(55);
    ropt.endpoint.timeout_ms = 30'000;
    posix::SenderOptions sopt;
    sopt.data_port = ropt.data_port;
    sopt.control_port = ropt.control_port;
    sopt.endpoint.timeout_ms = 30'000;
    auto tx = engine.submit_send(sopt, std::span<const std::uint8_t>(object));
    auto rx = engine.submit_receive(ropt, std::span<std::uint8_t>(sink));
    EXPECT_EQ(tx.wait(), posix::TransferStatus::kCompleted) << "round " << round;
    EXPECT_EQ(rx.wait(), posix::TransferStatus::kCompleted) << "round " << round;
    EXPECT_EQ(sink, object);
    EXPECT_TRUE(net::listen_tcp(sopt.control_port, 1).valid()) << "round " << round;
  }
}

}  // namespace
}  // namespace fobs
