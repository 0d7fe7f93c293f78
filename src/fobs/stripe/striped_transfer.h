// Striped multi-flow FOBS: one object carried over N parallel UDP
// flows (the PSockets idea applied to the FOBS wire protocol).
//
// A striped transfer is K ordinary FOBS sessions — each with its own
// UDP socket, DatagramChannel, ACK stream, adaptive pacing state, and
// stall budget — running concurrently on a TransferEngine's worker
// pool, all addressing disjoint slices of ONE shared object buffer
// through a StripePlan (fobs/stripe/plan.h). There is no merge step:
// every stripe's receiver writes straight into the whole-object mapping
// at plan-computed offsets.
//
// A plain single-flow transfer is the 1-stripe plan; every transfer
// the file server and fetch_file run goes through two steps here:
//   * Negotiation (only when a peer asked for K > 1). The receiver
//     binds its K UDP data sockets, connects to the sender's
//     negotiation TCP port and sends a FOBSSTRP request (stripe count,
//     layout, the bound sockets' ports). The sender clamps the count
//     (its max_stripes, the object's packet count, the control
//     listeners it could bind) and answers with the accepted count and
//     one TCP control port per stripe. Each side binds a port before it
//     names it, so every port either peer reads already takes traffic.
//     A refusal (accepted count zero) or a pre-striping sender, which
//     drops the connection on the unknown token, settles on the
//     1-stripe plan on (the first data socket, negotiation_port)
//     instead, so both sides degrade together; a refusing sender keeps
//     the negotiation listener open for that one flow.
//   * Launch. A settled plan plus, per stripe, the peer's port and this
//     side's bound socket (StripeLaunch) starts one ordinary FOBS
//     session per stripe in stripe-local sequence space — greedy UDP,
//     selective-ACK bitmap, TCP completion token — and aggregates them
//     into one StripedResult. A 1-stripe plan whose ports a plain
//     catalog exchange already fixed goes straight here: its wire
//     bytes are exactly those of a plain transfer.
//
// Checkpointing: every file describes the whole object (see
// fobs/posix/checkpoint.h). A 1-stripe session writes `<base>`, stripe
// i of a K > 1 plan writes `<base>.s<i>`, and every session resumes its
// own packets from the union of all files of the base, so a retry with
// any stripe count or layout resumes what any earlier attempt stored.
// The launch step's only checkpoint work is removing every file of the
// base once all K > 1 stripes complete; a 1-stripe session does that
// itself.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fobs/posix/engine.h"
#include "fobs/stripe/negotiate.h"
#include "fobs/stripe/plan.h"

namespace fobs::posix {

/// The launch step reads only core, endpoint and stripe_fault_plans.
struct StripedSenderOptions {
  /// TCP port to accept the FOBSSTRP negotiation on (required unless
  /// StripedSessionParams::listener is handed). On a refused
  /// negotiation the 1-stripe fallback sender accepts on the same
  /// listener, so legacy-shaped clients keep working.
  std::uint16_t negotiation_port = 0;
  /// Upper bound on stripes this sender will accept (further clamped by
  /// the object's packet count and the control listeners it can bind
  /// in the engine's range).
  int max_stripes = stripe::kMaxStripes;
  fobs::core::SenderConfig core;
  /// Applied to every stripe's session (packet size, stall budget, I/O
  /// tuning). endpoint.fault_plan applies to all stripes unless
  /// stripe_fault_plans overrides a specific one.
  EndpointOptions endpoint;
  /// When non-empty, per-stripe fault-plan overrides (index = stripe;
  /// missing/empty entries keep endpoint.fault_plan). Lets tests kill
  /// exactly one stripe's flow.
  std::vector<std::string> stripe_fault_plans;
};

/// The launch step reads only sender_host, core, the checkpoint fields,
/// endpoint and stripe_fault_plans.
struct StripedReceiverOptions {
  std::string sender_host = "127.0.0.1";
  /// The sender's negotiation port (required).
  std::uint16_t negotiation_port = 0;
  /// Local UDP data ports: 0 binds a kernel-chosen port per stripe;
  /// otherwise stripe i binds data_port_base + i. The ports are bound
  /// before the request names them, and it asks for no more stripes
  /// than were bound (from stripe 0 on; none fails with kSocketError).
  std::uint16_t data_port_base = 0;
  /// Requested stripe count; the sender may accept fewer.
  /// run_striped_receiver negotiates even for 1, so any K pairs with
  /// any striped sender.
  int stripes = 1;
  stripe::StripeLayout layout = stripe::StripeLayout::kContiguous;
  fobs::core::ReceiverConfig core;
  /// When non-empty, the transfer checkpoints here: a 1-stripe plan at
  /// `<base>` itself, K > 1 per stripe at `<base>.s<i>`, each file over
  /// the whole object. Pair it with a file-backed buffer exactly as for
  /// single-flow checkpoints.
  std::string checkpoint_base;
  /// Fall back to the 1-stripe plan when the peer rejects (or
  /// predates) FOBSSTRP. When false such peers yield kPeerLost.
  bool allow_single_flow_fallback = true;
  EndpointOptions endpoint;
  std::vector<std::string> stripe_fault_plans;
};

/// Aggregate of one striped transfer plus every per-stripe result.
struct StripedResult {
  /// kCompleted iff every stripe completed; otherwise the most severe
  /// per-stripe failure (socket/options errors over crash over
  /// cancel over peer-lost over timeout over stall).
  TransferStatus status = TransferStatus::kPending;
  std::string error;  ///< human-readable detail; empty on success
  bool is_sender = false;
  /// Striping was asked for, and the FOBSSTRP exchange settled on the
  /// 1-stripe plan instead (legacy peer or refused negotiation).
  bool fallback_single_flow = false;
  /// Stripes actually run (post-clamp; 1 in the fallback case).
  int stripes = 0;
  stripe::StripeLayout layout = stripe::StripeLayout::kContiguous;
  int stripes_completed = 0;
  /// Failed, and the checkpoint base's files record at least one
  /// packet, so a retry with any stripe count resumes instead of
  /// restarting.
  bool resumable = false;
  double elapsed_seconds = 0.0;  ///< slowest stripe (wall clock)
  /// Whole-object goodput over the slowest stripe's elapsed time.
  double goodput_mbps = 0.0;
  std::int64_t packets_restored = 0;  ///< summed over stripes (receiver)
  /// Per-stripe results, indexed by stripe; senders fill
  /// stripe_senders, receivers stripe_receivers.
  std::vector<SenderResult> stripe_senders;
  std::vector<ReceiverResult> stripe_receivers;
  fobs::net::IoStats io;  ///< summed over stripes

  [[nodiscard]] bool completed() const { return status == TransferStatus::kCompleted; }
  /// Some stripes delivered, some failed — with a checkpoint base,
  /// the completed stripes' records make a retry resume.
  [[nodiscard]] bool degraded() const { return !completed() && stripes_completed > 0; }
};

/// A settled plan for one side: stripe i runs on this side's bound
/// sockets[i] against the peer's peer_ports[i], and both peers derive
/// the same StripePlan from the stripe count, the layout and the object
/// size. On a sender, sockets are the stripes' listening control
/// sockets and peer_ports the receiver's UDP data ports; on a receiver,
/// sockets are the stripes' UDP data sockets and peer_ports the
/// sender's control ports. Each socket goes to its stripe's session
/// (SessionParams::socket), which closes it when it ends.
struct StripeLaunch {
  std::string peer_host = "127.0.0.1";  ///< sender only: the receiver's host
  stripe::StripeLayout layout = stripe::StripeLayout::kContiguous;
  std::vector<std::uint16_t> peer_ports = {};
  std::vector<net::Fd> sockets = {};
  /// Copied into StripedResult::fallback_single_flow.
  bool fallback_single_flow = false;
};

/// Up to `count` bound UDP data sockets for one receive, stripe i's at
/// port base + i, or every one at a kernel-chosen port when base is 0.
/// Stops at the first port that cannot be bound, so it returns as many
/// as it could bind (none when stripe 0's port is taken).
[[nodiscard]] std::vector<net::Fd> bind_data_sockets(std::uint16_t base, int count);

/// Extras for TransferEngine::submit_striped_send / launch_striped_send.
struct StripedSessionParams {
  /// Kept alive until the last stripe session ends (typically the
  /// mmap'd TransferObject backing the object span).
  std::shared_ptr<void> keepalive;
  /// submit_striped_send only: an already listening negotiation socket,
  /// used instead of binding negotiation_port. It is closed once
  /// striping is agreed, or serves the 1-stripe fallback session.
  net::Fd listener = {};
  /// Runs on the final stripe's worker once the aggregate is known.
  std::function<void(const StripedResult&)> on_complete;
};

}  // namespace fobs::posix
