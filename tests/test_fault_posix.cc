// Crash-resilience tests over real loopback sockets: option validation,
// garbage-datagram tolerance, checksum rejection, stall-based give-up,
// and the checkpoint/resume path (kill the receiver mid-transfer,
// restart it from the sidecar, and check the sender learned the
// restored packets from the resume frame).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "fobs/posix/checkpoint.h"
#include "fobs/posix/codec.h"
#include "fobs/posix/posix_transfer.h"
#include "fobs/sim_transfer.h"
#include "telemetry/trace.h"

namespace fobs {
namespace {

// Distinct port bases per test to avoid rebind races (keep clear of
// test_fobs_posix.cc's 36xxx block).
std::uint16_t port_base(int offset) { return static_cast<std::uint16_t>(38000 + offset); }

// ---------------------------------------------------------------------------
// Option validation (no sockets touched)
// ---------------------------------------------------------------------------

TEST(FaultPosixValidation, SenderRejectsBadOptions) {
  const std::vector<std::uint8_t> object(1024, 0xAA);

  posix::SenderOptions no_ports;
  auto result = posix::send_object(no_ports, object);
  EXPECT_EQ(result.status, posix::TransferStatus::kBadOptions);
  EXPECT_FALSE(result.completed());
  EXPECT_NE(result.error.find("data_port"), std::string::npos) << result.error;

  posix::SenderOptions bad_packet;
  bad_packet.data_port = port_base(0);
  bad_packet.control_port = port_base(1);
  bad_packet.endpoint.packet_bytes = 0;
  result = posix::send_object(bad_packet, object);
  EXPECT_FALSE(result.completed());
  EXPECT_NE(result.error.find("packet_bytes"), std::string::npos) << result.error;

  posix::SenderOptions empty_object;
  empty_object.data_port = port_base(0);
  empty_object.control_port = port_base(1);
  result = posix::send_object(empty_object, {});
  EXPECT_FALSE(result.completed());
  EXPECT_NE(result.error.find("empty object"), std::string::npos) << result.error;
}

TEST(FaultPosixValidation, ReceiverRejectsBadOptions) {
  std::vector<std::uint8_t> sink(1024, 0);

  posix::ReceiverOptions no_ports;
  auto result = posix::receive_object(no_ports, sink);
  EXPECT_EQ(result.status, posix::TransferStatus::kBadOptions);
  EXPECT_FALSE(result.completed());
  EXPECT_NE(result.error.find("data_port"), std::string::npos) << result.error;

  posix::ReceiverOptions bad_packet;
  bad_packet.data_port = port_base(2);
  bad_packet.control_port = port_base(3);
  bad_packet.endpoint.packet_bytes = -5;
  result = posix::receive_object(bad_packet, sink);
  EXPECT_FALSE(result.completed());
  EXPECT_NE(result.error.find("packet_bytes"), std::string::npos) << result.error;

  posix::ReceiverOptions empty_buffer;
  empty_buffer.data_port = port_base(2);
  empty_buffer.control_port = port_base(3);
  result = posix::receive_object(empty_buffer, {});
  EXPECT_FALSE(result.completed());
  EXPECT_NE(result.error.find("empty buffer"), std::string::npos) << result.error;
}

TEST(FaultPosixValidation, MalformedFaultPlanIsReportedNotIgnored) {
  const std::vector<std::uint8_t> object(1024, 0xAA);
  posix::SenderOptions options;
  options.data_port = port_base(4);
  options.control_port = port_base(5);
  options.endpoint.fault_plan = "data.corrupt=2.0";
  const auto result = posix::send_object(options, object);
  EXPECT_EQ(result.status, posix::TransferStatus::kBadOptions);
  EXPECT_FALSE(result.completed());
  EXPECT_NE(result.error.find("invalid fault plan"), std::string::npos) << result.error;
}

// ---------------------------------------------------------------------------
// Stall-based give-up
// ---------------------------------------------------------------------------

TEST(FaultPosixStall, SenderGivesUpAfterEmptyIntervalsWithStallTrace) {
  // No receiver exists: zero progress. The sender must die through the
  // stall budget — `stall_intervals` stall events, then the timeout —
  // in about timeout_ms, not hang.
  const auto object = core::make_pattern(64 * 1024, 0xBEEF);
  telemetry::EventTracer trace;
  posix::SenderOptions options;
  options.data_port = port_base(6);
  options.control_port = port_base(7);
  options.endpoint.timeout_ms = 1'000;
  options.endpoint.stall_intervals = 4;
  options.endpoint.tracer = &trace;

  const auto start = std::chrono::steady_clock::now();
  const auto result = posix::send_object(options, object);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_FALSE(result.completed());
  EXPECT_EQ(result.status, posix::TransferStatus::kTimeout);
  EXPECT_EQ(result.error, "timeout");
  EXPECT_LT(elapsed, options.endpoint.timeout_ms + 5'000);
  EXPECT_EQ(trace.count(telemetry::EventType::kStall), options.endpoint.stall_intervals);
  const auto events = trace.snapshot();
  ASSERT_GE(events.size(), 2u);
  EXPECT_EQ(events[events.size() - 2].type, telemetry::EventType::kStall);
  EXPECT_EQ(events.back().type, telemetry::EventType::kTimeout);
}

// ---------------------------------------------------------------------------
// Live-transfer harness
// ---------------------------------------------------------------------------

struct TransferPair {
  posix::SenderResult sender;
  posix::ReceiverResult receiver;
};

/// Runs one sender/receiver pair to completion on loopback.
TransferPair run_pair(const posix::SenderOptions& send_opts,
                      const posix::ReceiverOptions& recv_opts,
                      std::span<const std::uint8_t> object, std::span<std::uint8_t> sink) {
  TransferPair out;
  std::thread receiver_thread([&] { out.receiver = posix::receive_object(recv_opts, sink); });
  out.sender = posix::send_object(send_opts, object);
  receiver_thread.join();
  return out;
}

// ---------------------------------------------------------------------------
// Garbage datagrams (satellite: protocol sockets must shrug them off)
// ---------------------------------------------------------------------------

TEST(FaultPosixGarbage, TransferSurvivesGarbageDatagramsAndCorruptAcks) {
  const std::int64_t object_bytes = 256 * 1024;
  const std::int64_t packet_bytes = 1024;
  const auto object = core::make_pattern(object_bytes, 0xF00D);
  std::vector<std::uint8_t> sink(object.size(), 0);

  posix::ReceiverOptions recv_opts;
  recv_opts.data_port = port_base(10);
  recv_opts.control_port = port_base(11);
  recv_opts.endpoint.packet_bytes = packet_bytes;
  recv_opts.core.ack_frequency = 4;
  recv_opts.endpoint.timeout_ms = 30'000;
  // Most outgoing ACKs are corrupted in flight: the sender's decoder
  // must reject and count them while the transfer still completes off
  // the clean minority plus the completion token.
  recv_opts.endpoint.fault_plan = "seed=3;ack.corrupt=0.9";

  posix::SenderOptions send_opts;
  send_opts.data_port = recv_opts.data_port;
  send_opts.control_port = recv_opts.control_port;
  send_opts.endpoint.packet_bytes = packet_bytes;
  send_opts.endpoint.timeout_ms = 30'000;

  // A hostile neighbour sprays junk at the receiver's data port for the
  // whole transfer: random blobs, wrong-magic headers, truncated
  // packets, and valid-looking headers with out-of-range sequences.
  std::atomic<bool> stop{false};
  std::thread garbage_thread([&] {
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in to{};
    to.sin_family = AF_INET;
    to.sin_port = htons(recv_opts.data_port);
    ::inet_pton(AF_INET, "127.0.0.1", &to.sin_addr);
    util::Rng rng(0xBAD);
    std::vector<std::uint8_t> junk(512);
    while (!stop.load(std::memory_order_relaxed)) {
      for (auto& byte : junk) byte = static_cast<std::uint8_t>(rng.next());
      // 1/4 of the junk gets a valid magic+type so it reaches the
      // deeper validation layers (bad seq, truncated payload, bad CRC).
      if (rng.next() % 4 == 0) {
        posix::encode_data_header(
            posix::DataHeader{static_cast<core::PacketSeq>(rng.next() % 4096), 0},
            junk.data());
      }
      const std::size_t len = 1 + static_cast<std::size_t>(rng.next() % junk.size());
      ::sendto(fd, junk.data(), len, 0, reinterpret_cast<sockaddr*>(&to), sizeof to);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    ::close(fd);
  });

  const auto pair = run_pair(send_opts, recv_opts, object, sink);
  stop.store(true);
  garbage_thread.join();

  ASSERT_TRUE(pair.receiver.completed()) << pair.receiver.error;
  ASSERT_TRUE(pair.sender.completed()) << pair.sender.error;
  EXPECT_EQ(sink, object);  // garbage never landed in the object
  // The corrupted ACKs were seen and rejected, not silently accepted.
  EXPECT_GT(pair.sender.corrupt_acks_dropped, 0);
}

TEST(FaultPosixGarbage, CorruptedDataPacketsAreRejectedAndResent) {
  const auto object = core::make_pattern(256 * 1024, 0xC0DE);
  std::vector<std::uint8_t> sink(object.size(), 0);

  posix::ReceiverOptions recv_opts;
  recv_opts.data_port = port_base(12);
  recv_opts.control_port = port_base(13);
  recv_opts.core.ack_frequency = 16;
  recv_opts.endpoint.timeout_ms = 30'000;

  posix::SenderOptions send_opts;
  send_opts.data_port = recv_opts.data_port;
  send_opts.control_port = recv_opts.control_port;
  send_opts.endpoint.timeout_ms = 30'000;
  // 2% of data packets are corrupted after the checksum is computed.
  send_opts.endpoint.fault_plan = "seed=11;data.corrupt=0.02";

  const auto pair = run_pair(send_opts, recv_opts, object, sink);
  ASSERT_TRUE(pair.receiver.completed()) << pair.receiver.error;
  ASSERT_TRUE(pair.sender.completed()) << pair.sender.error;
  EXPECT_EQ(sink, object);
  EXPECT_GT(pair.receiver.corrupt_packets_dropped, 0);
  EXPECT_GT(pair.sender.packets_sent, pair.sender.packets_needed);
}

// ---------------------------------------------------------------------------
// Crash + checkpoint + resume (the tentpole acceptance path)
// ---------------------------------------------------------------------------

/// One full crash-and-restart scenario: the receiver dies after 3500
/// data packets, then a second incarnation (same buffer) runs to
/// completion. Both variants checkpoint identically — the only
/// difference is whether the sidecar survives to the restart (`resume`)
/// or is wiped first (a true from-scratch restart), so the packet-count
/// comparison isolates exactly what the resume handshake saves.
TransferPair run_crash_restart(int port_offset, bool resume,
                               std::span<const std::uint8_t> object,
                               std::span<std::uint8_t> sink,
                               posix::ReceiverResult* first_incarnation = nullptr) {
  const std::string checkpoint_path =
      ::testing::TempDir() + "fobs_resume_" + std::to_string(port_offset) + ".ckpt";
  posix::remove_checkpoint(checkpoint_path);

  posix::ReceiverOptions recv_opts;
  recv_opts.data_port = port_base(port_offset);
  recv_opts.control_port = port_base(port_offset + 1);
  recv_opts.core.ack_frequency = 16;
  recv_opts.endpoint.timeout_ms = 30'000;
  recv_opts.checkpoint_path = checkpoint_path;
  recv_opts.checkpoint_every_acks = 4;

  posix::SenderOptions send_opts;
  send_opts.data_port = recv_opts.data_port;
  send_opts.control_port = recv_opts.control_port;
  send_opts.endpoint.timeout_ms = 30'000;

  TransferPair out;
  std::thread receiver_thread([&] {
    // Incarnation 1: killed by the injected crash late in the transfer,
    // so the checkpointed bitmap is worth far more than the timing
    // noise of the restart window.
    auto crash_opts = recv_opts;
    crash_opts.endpoint.fault_plan = "crash=3500";
    const auto crashed = posix::receive_object(crash_opts, sink);
    if (first_incarnation != nullptr) *first_incarnation = crashed;
    if (!resume) posix::remove_checkpoint(checkpoint_path);
    // Incarnation 2: restart into the same buffer.
    out.receiver = posix::receive_object(recv_opts, sink);
  });
  out.sender = posix::send_object(send_opts, object);
  receiver_thread.join();
  posix::remove_checkpoint(checkpoint_path);
  return out;
}

TEST(FaultPosixResume, RestartedReceiverResumesFromCheckpoint) {
  const auto object = core::make_pattern(4 * 1024 * 1024, 0xACE);
  std::vector<std::uint8_t> resumed_sink(object.size(), 0);
  std::vector<std::uint8_t> scratch_sink(object.size(), 0);

  posix::ReceiverResult crashed;
  const auto resumed =
      run_crash_restart(20, /*resume=*/true, object, resumed_sink, &crashed);
  EXPECT_EQ(crashed.status, posix::TransferStatus::kCrashed);
  EXPECT_EQ(crashed.error, "injected crash");
  ASSERT_TRUE(resumed.receiver.completed()) << resumed.receiver.error;
  ASSERT_TRUE(resumed.sender.completed()) << resumed.sender.error;
  EXPECT_EQ(resumed_sink, object);  // pre-crash bytes + resumed bytes agree
  // The second incarnation really started from the sidecar, and the
  // sender saw the restart as a control-channel reconnect.
  EXPECT_GT(resumed.receiver.packets_restored, 0);
  EXPECT_GE(resumed.sender.reconnects, 1);
  // The resume handshake, not ACK timing, told the sender what the
  // restarted receiver already holds: it learned at least one packet
  // from the resume frame, and never more than the checkpoint restored.
  EXPECT_GT(resumed.sender.packets_resumed, 0);
  EXPECT_LE(resumed.sender.packets_resumed, resumed.receiver.packets_restored);

  // Baseline: same crash, but the restart begins from scratch, so no
  // resume frame is sent and the sender learns nothing from one.
  const auto scratch = run_crash_restart(24, /*resume=*/false, object, scratch_sink);
  ASSERT_TRUE(scratch.receiver.completed()) << scratch.receiver.error;
  ASSERT_TRUE(scratch.sender.completed()) << scratch.sender.error;
  EXPECT_EQ(scratch.receiver.packets_restored, 0);
  EXPECT_EQ(scratch.sender.packets_resumed, 0);
}

TEST(FaultPosixResume, CheckpointIsRemovedAfterCompletion) {
  const std::string checkpoint_path = ::testing::TempDir() + "fobs_resume_cleanup.ckpt";
  posix::remove_checkpoint(checkpoint_path);
  const auto object = core::make_pattern(128 * 1024, 0xFACE);
  std::vector<std::uint8_t> sink(object.size(), 0);

  posix::ReceiverOptions recv_opts;
  recv_opts.data_port = port_base(28);
  recv_opts.control_port = port_base(29);
  recv_opts.core.ack_frequency = 16;
  recv_opts.endpoint.timeout_ms = 30'000;
  recv_opts.checkpoint_path = checkpoint_path;
  recv_opts.checkpoint_every_acks = 1;

  posix::SenderOptions send_opts;
  send_opts.data_port = recv_opts.data_port;
  send_opts.control_port = recv_opts.control_port;
  send_opts.endpoint.timeout_ms = 30'000;

  const auto pair = run_pair(send_opts, recv_opts, object, sink);
  ASSERT_TRUE(pair.receiver.completed()) << pair.receiver.error;
  EXPECT_EQ(sink, object);
  // A completed transfer leaves no sidecar behind.
  EXPECT_FALSE(posix::load_checkpoint(checkpoint_path).has_value());
}

}  // namespace
}  // namespace fobs
