// Real-socket (POSIX) FOBS drivers.
//
// The same sessions and cores (fobs/session.h) that run in the
// simulator, driven by non-blocking UDP sockets plus a TCP completion
// channel — the paper's deployment shape. One UDP socket per side
// carries both data and acknowledgements (the receiver replies to the
// source address of the data packets, so no ack-port configuration is
// needed); a TCP connection from receiver to sender delivers the
// "all data received" signal.
//
// Two surfaces exist:
//   * the session engine (fobs/posix/engine.h) — N concurrent
//     transfers on a worker pool, each addressable through a
//     TransferHandle (wait/status/cancel);
//   * the blocking free functions below — thin wrappers over a
//     one-session engine, kept for callers that want exactly one
//     transfer and are happy to block for it.
//
// Results carry a TransferStatus (see fobs/posix/options.h); `error`
// is only the human-readable detail and `completed()` is derived from
// the status, so callers never classify outcomes by string matching.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>

#include "fobs/posix/options.h"
#include "fobs/receiver_core.h"
#include "fobs/sender_core.h"
#include "fobs/stripe/plan.h"
#include "net/faults.h"
#include "net/socket.h"

namespace fobs::posix {

struct SenderOptions {
  std::string receiver_host = "127.0.0.1";
  std::uint16_t data_port = 0;     ///< receiver's UDP port (required)
  /// Sender's TCP listen port (required unless the session is handed a
  /// listening socket, see SessionParams::socket).
  std::uint16_t control_port = 0;
  fobs::core::SenderConfig core;
  /// Knobs shared with the receive side (packet size, stall budget,
  /// fault plan, tracer, datagram I/O tuning — SO_SNDBUF now lives at
  /// `endpoint.io.send_buffer_bytes`).
  EndpointOptions endpoint;
  /// When active, this session carries one stripe of a striped
  /// transfer: sequence numbers (and ACKs and bitmaps) are
  /// stripe-local, while `object` must still span the *whole* object —
  /// payload bytes are gathered at plan-computed global offsets. Both
  /// peers must agree on the plan (see fobs/stripe/negotiate.h). When
  /// null, the session runs the 1-stripe plan over the whole object.
  stripe::StripeRef stripe;
};

struct SenderResult {
  TransferStatus status = TransferStatus::kPending;
  std::string error;  ///< human-readable detail; empty on success
  double elapsed_seconds = 0.0;
  std::int64_t packets_sent = 0;
  std::int64_t packets_needed = 0;
  double waste = 0.0;
  double goodput_mbps = 0.0;
  /// ACK datagrams that arrived but failed to decode (corrupt/garbage).
  std::int64_t corrupt_acks_dropped = 0;
  /// Valid ACKs discarded because their epoch did not match the current
  /// receiver incarnation (late datagrams from before a reconnect).
  std::int64_t stale_acks_dropped = 0;
  /// Control connections accepted after the first (a receiver restarting).
  int reconnects = 0;
  /// Packets marked received by resume frames rather than by ACKs: the
  /// sends a restarted receiver's checkpoint saved, over every frame.
  std::int64_t packets_resumed = 0;
  /// Data-plane I/O counters (syscalls, datagrams, copy bytes avoided).
  fobs::net::IoStats io;

  [[nodiscard]] bool completed() const { return status == TransferStatus::kCompleted; }
};

/// Sends `object` to a receive_object() peer. Blocks until the
/// completion signal arrives or the stall budget expires.
SenderResult send_object(const SenderOptions& options, std::span<const std::uint8_t> object);

struct ReceiverOptions {
  std::string sender_host = "127.0.0.1";
  /// Local UDP port, bound at submit (required unless the session is
  /// handed a bound socket, see SessionParams::socket).
  std::uint16_t data_port = 0;
  std::uint16_t control_port = 0;  ///< sender's TCP port (required)
  fobs::core::ReceiverConfig core;
  /// When non-empty, the checkpoint base (fobs/posix/checkpoint.h):
  /// the receiver's bitmap is persisted to its file of the base every
  /// ReceiverSession::kCheckpointEveryAcks (16) acknowledgements, the
  /// union of the base's files is loaded on start (the caller must
  /// supply the same partially-filled buffer the previous incarnation
  /// wrote into — typically a TransferObject::map_file_rw mapping,
  /// which keeps the bytes on disk even across a hard crash; restoring
  /// a checkpoint over a buffer that lacks those bytes silently
  /// corrupts the object), and every file of the base is removed after
  /// a completed unstriped transfer. A restarted receiver announces its
  /// restored bitmap to the sender over the control channel so
  /// already-received packets are not re-sent.
  std::string checkpoint_path;
  /// Knobs shared with the send side. SO_RCVBUF — the buffer whose
  /// overflow during ACK construction the paper's Figure 1 studies —
  /// now lives at `endpoint.io.recv_buffer_bytes`.
  EndpointOptions endpoint;
  /// When active, this session receives one stripe into its plan-
  /// computed disjoint offsets of the whole-object `buffer` (which all
  /// stripes share — zero merge copies). In a plan of K > 1 stripes it
  /// checkpoints at `<checkpoint_path>.s<index>` and, once complete,
  /// leaves its final record there for the launch step to remove. When
  /// null, the session runs the 1-stripe plan over the whole object.
  stripe::StripeRef stripe;
};

struct ReceiverResult {
  TransferStatus status = TransferStatus::kPending;
  std::string error;  ///< human-readable detail; empty on success
  double elapsed_seconds = 0.0;
  std::int64_t packets_received = 0;
  std::int64_t duplicates = 0;
  double goodput_mbps = 0.0;
  /// Data packets rejected because their payload CRC32 failed.
  std::int64_t corrupt_packets_dropped = 0;
  /// Packets pre-seeded from a checkpoint instead of the network.
  std::int64_t packets_restored = 0;
  /// Control-channel reconnects performed after losing the connection.
  int reconnects = 0;
  /// Data-plane I/O counters for this transfer's datagram channel.
  fobs::net::IoStats io;

  [[nodiscard]] bool completed() const { return status == TransferStatus::kCompleted; }
};

/// Receives an object of exactly `buffer.size()` bytes into `buffer`.
ReceiverResult receive_object(const ReceiverOptions& options, std::span<std::uint8_t> buffer);

namespace detail {

/// The actual blocking transfer loops. `cancel` (nullable) is polled
/// once per loop iteration; setting it makes the loop exit with
/// TransferStatus::kCancelled. The engine runs these on its workers;
/// the public free functions reach them through a one-session engine.
/// The sender accepts its control channel on `listener`, a listening
/// socket on options.control_port that stays the caller's (-1 when the
/// bind failed). The receiver takes its data channel over `socket`, a
/// UDP socket already bound on options.data_port (invalid when the bind
/// failed); neither driver binds anything itself.
SenderResult run_sender(const SenderOptions& options, std::span<const std::uint8_t> object,
                        int listener, const std::atomic<bool>* cancel);
ReceiverResult run_receiver(const ReceiverOptions& options, std::span<std::uint8_t> buffer,
                            net::Fd socket, const std::atomic<bool>* cancel);

/// Goodput in Mb/s of `bytes` moved in `seconds` (0 for no elapsed time).
[[nodiscard]] double mbps(std::int64_t bytes, double seconds);

}  // namespace detail

}  // namespace fobs::posix
