// Concurrent multi-session FOBS transfer engine.
//
// A TransferEngine owns a worker pool, a registry of live sessions,
// an optional control-port range, and (optionally) a TCP acceptor for
// service front-ends. Each submitted transfer becomes a
// *session*: it runs the blocking POSIX driver loop on a pool worker
// with its own batched DatagramChannel for the data plane (tuned via
// EndpointOptions::io — sendmmsg/recvmmsg batch sizes, socket buffers,
// forced batched/fallback mode), its own control connection, its own
// EventTracer (when requested), and the full fault/checkpoint
// machinery. The caller holds a TransferHandle and can wait(),
// poll status(), or cancel() the session at any time.
//
// The engine is what lets one process serve many transfers at once —
// fobsd's serve loop, the file server (fobs/posix/fileserver.h), and
// any embedding that out-grows the blocking free functions.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fobs/posix/posix_transfer.h"
#include "net/socket.h"

namespace fobs::posix {

class TransferEngine;

// Striped-transfer types (fobs/stripe/striped_transfer.h). Forward
// declared so plain engine users don't pull the striping layer in.
struct StripedSenderOptions;
struct StripedReceiverOptions;
struct StripedResult;
struct StripedSessionParams;
struct StripeLaunch;

namespace detail {
struct Session;
}

/// A caller's reference to one engine session. Cheap to copy (shared
/// ownership of the session record); safe to use after the engine has
/// finished the session, and — for status/results — after the engine
/// itself is gone.
class TransferHandle {
 public:
  TransferHandle() = default;

  [[nodiscard]] bool valid() const { return session_ != nullptr; }
  /// Engine-unique session id (1-based, in submission order).
  [[nodiscard]] std::uint64_t id() const;
  /// Current lifecycle state; terminal states never change again.
  [[nodiscard]] TransferStatus status() const;
  /// True once the session reached a terminal status.
  [[nodiscard]] bool done() const { return is_terminal(status()); }

  /// Blocks until the session is terminal; returns the final status.
  TransferStatus wait() const;
  /// Blocks up to `timeout`; true when the session finished in time.
  bool wait_for(std::chrono::milliseconds timeout) const;

  /// Requests cancellation. The session's driver loop notices within
  /// one poll interval and exits with TransferStatus::kCancelled. A
  /// session that already finished is unaffected. Never blocks.
  void cancel() const;

  /// Final results — meaningful once done(); sender_result() for
  /// sessions submitted via submit_send, receiver_result() for
  /// submit_receive. The reference stays valid while any handle to the
  /// session exists.
  [[nodiscard]] const SenderResult& sender_result() const;
  [[nodiscard]] const ReceiverResult& receiver_result() const;
  [[nodiscard]] bool is_sender() const;

 private:
  friend class TransferEngine;
  explicit TransferHandle(std::shared_ptr<detail::Session> session)
      : session_(std::move(session)) {}

  std::shared_ptr<detail::Session> session_;
};

struct EngineOptions {
  /// Worker threads = max concurrently running sessions. Further
  /// submissions queue until a worker frees up. 0 = hardware
  /// concurrency.
  std::size_t workers = 4;
  /// Ports for the control listeners the engine binds itself
  /// (listen_control_port): the first free one of [base, base + count),
  /// the range clamped at 65535. Base 0 lets the kernel choose; a
  /// non-zero base with count 0 is an empty range that never binds.
  std::uint16_t control_port_base = 0;
  std::uint16_t control_port_count = 0;
  /// When non-empty, every session whose options carry no tracer
  /// records into an engine-owned EventTracer, written to
  /// `<trace_dir>/session_<id>_s<stripe>.jsonl` (stripe 0 for an
  /// unstriped session) before the session turns terminal. Sessions
  /// with a caller-supplied tracer are left to the caller.
  std::string trace_dir = {};
};

/// Per-submission extras beyond the transfer options.
struct SessionParams {
  /// Kept alive until the session ends — typically the mmap'd
  /// TransferObject backing the spans handed to submit_*.
  std::shared_ptr<void> keepalive;
  /// The session's own socket, bound before its port was named to the
  /// peer: a sender's listening control socket (its port replaces
  /// options.control_port; the session accepts on it and closes it
  /// before it turns terminal) or a receiver's UDP data socket (its
  /// port replaces options.data_port; the session's datagram channel
  /// wraps it). Without one, submit_send listens on
  /// options.control_port and submit_receive binds options.data_port.
  net::Fd socket = {};
  /// Runs on the session's worker right after the session turns
  /// terminal (results are final, socket already closed). Keep it
  /// short; it blocks that worker.
  std::function<void(const TransferHandle&)> on_exit;
};

class TransferEngine {
 public:
  explicit TransferEngine(EngineOptions options = {});
  /// Cancels every live session, waits for all of them to finish, and
  /// stops the acceptor.
  ~TransferEngine();

  TransferEngine(const TransferEngine&) = delete;
  TransferEngine& operator=(const TransferEngine&) = delete;

  /// Schedules one send/receive session. The object/buffer span (and
  /// anything else the options reference, e.g. a tracer) must stay
  /// valid until the session is terminal — use SessionParams::keepalive
  /// for engine-managed lifetime. Invalid options are not rejected
  /// here; the session turns kBadOptions immediately on its worker.
  /// Both bind before they return (see SessionParams::socket), so a
  /// peer may reach the session while it still waits for a worker: a
  /// receiver's connect waits in the sender's listen backlog, and a
  /// sender's datagrams wait in the receiver's socket buffer.
  TransferHandle submit_send(const SenderOptions& options,
                             std::span<const std::uint8_t> object, SessionParams params = {});
  TransferHandle submit_receive(const ReceiverOptions& options,
                                std::span<std::uint8_t> buffer, SessionParams params = {});

  /// A control listener on the first free port of the configured range
  /// (a kernel-chosen port when control_port_base is 0); invalid when
  /// every port of the range is taken. Bind first, advertise
  /// net::local_port() after, then hand it to a session as
  /// SessionParams::socket.
  [[nodiscard]] net::Fd listen_control_port() const;

  /// Striped transfers (see fobs/stripe/striped_transfer.h): negotiate
  /// FOBSSTRP with the peer, then launch one session per stripe on this
  /// engine's pool and aggregate. Blocking — do not call from a pool
  /// worker of this engine (the stripes need those workers); service
  /// front-ends use submit_striped_send, whose negotiation runs inline
  /// but whose aggregation completes via StripedSessionParams callbacks.
  StripedResult run_striped_sender(const StripedSenderOptions& options,
                                   std::span<const std::uint8_t> object);
  StripedResult run_striped_receiver(const StripedReceiverOptions& options,
                                     std::span<std::uint8_t> buffer);
  /// The same over data sockets the caller already bound (fetch_file
  /// binds them before its catalog line names the first): asks for at
  /// most one stripe per socket, and options.data_port_base is unused.
  StripedResult run_striped_receiver(const StripedReceiverOptions& options,
                                     std::span<std::uint8_t> buffer,
                                     std::vector<net::Fd> data_sockets);
  /// Negotiates inline, then launches the per-stripe sender sessions
  /// without waiting for them. False when nothing was launched
  /// (`error` says why).
  bool submit_striped_send(const StripedSenderOptions& options,
                           std::span<const std::uint8_t> object, StripedSessionParams params,
                           std::string* error = nullptr);
  /// The launch step alone, for a plan that needs no negotiation:
  /// starts one session per stripe of `launch` and aggregates them. The
  /// sender form returns at once (false, with `error`, when nothing was
  /// launched) and reports through `params.on_complete`; the receiver
  /// form blocks like run_striped_receiver and runs the checkpoint
  /// passes.
  bool launch_striped_send(const StripedSenderOptions& options,
                           std::span<const std::uint8_t> object, StripeLaunch launch,
                           StripedSessionParams params, std::string* error = nullptr);
  StripedResult launch_striped_receive(const StripedReceiverOptions& options,
                                       std::span<std::uint8_t> buffer, StripeLaunch launch);

  /// Binds a TCP listener on `port` (0 = kernel-chosen, see
  /// acceptor_port) and dispatches every accepted connection to the
  /// worker pool as `handler(fd, peer_host)`. The handler owns `fd` and
  /// must close it. One acceptor per engine; false when the bind/listen
  /// fails or one is already running.
  bool start_acceptor(std::uint16_t port,
                      std::function<void(int fd, std::string peer_host)> handler);
  /// The port the running acceptor listens on; 0 when none runs.
  [[nodiscard]] std::uint16_t acceptor_port() const;
  /// Stops accepting and blocks until every already-dispatched handler
  /// task has returned, so callers can tear down state the handlers
  /// capture. Handlers queued behind busy workers still run first;
  /// cancel sessions beforehand if stop latency matters.
  void stop_acceptor();
  [[nodiscard]] bool acceptor_running() const;

  /// Sessions submitted and not yet terminal (running or queued).
  [[nodiscard]] std::size_t active_sessions() const;
  [[nodiscard]] std::uint64_t sessions_submitted() const;
  [[nodiscard]] std::uint64_t sessions_completed() const;  ///< terminal with kCompleted
  [[nodiscard]] std::uint64_t sessions_failed() const;     ///< terminal, not kCompleted

  /// Requests cancellation of every live session (non-blocking).
  void cancel_all();
  /// Blocks until no session is active. Submissions racing with this
  /// call may keep it waiting; quiesce callers first.
  void wait_idle();

 private:
  TransferHandle submit(std::shared_ptr<detail::Session> session, SessionParams params);
  void run_session(const std::shared_ptr<detail::Session>& session);
  void finish_session(const std::shared_ptr<detail::Session>& session);
  void acceptor_loop();

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace fobs::posix
