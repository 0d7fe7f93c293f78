#include "fobs/stripe/striped_transfer.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>

#include "common/byte_order.h"
#include "fobs/posix/checkpoint.h"
#include "net/socket.h"
#include "telemetry/metrics.h"

namespace fobs::posix {

namespace {

using Clock = std::chrono::steady_clock;
using net::Fd;

void sum_io(fobs::net::IoStats& into, const fobs::net::IoStats& add) {
  into.send_syscalls += add.send_syscalls;
  into.recv_syscalls += add.recv_syscalls;
  into.datagrams_sent += add.datagrams_sent;
  into.datagrams_received += add.datagrams_received;
  into.send_would_block += add.send_would_block;
  into.bytes_sent += add.bytes_sent;
  into.bytes_received += add.bytes_received;
  into.copy_bytes_avoided += add.copy_bytes_avoided;
}

/// Failure ordering for the aggregate status: configuration and socket
/// errors are the most actionable, a quiet stall the least.
int severity(TransferStatus status) {
  switch (status) {
    case TransferStatus::kBadOptions: return 7;
    case TransferStatus::kSocketError: return 6;
    case TransferStatus::kCrashed: return 5;
    case TransferStatus::kCancelled: return 4;
    case TransferStatus::kPeerLost: return 3;
    case TransferStatus::kTimeout: return 2;
    case TransferStatus::kStalled: return 1;
    default: return 0;
  }
}

/// Derives every aggregate field of `result` from its per-stripe
/// vectors (exactly one of which is populated).
void finalize_aggregate(StripedResult& result, std::int64_t object_bytes) {
  result.stripes_completed = 0;
  result.packets_restored = 0;
  result.io = {};
  double slowest = 0.0;
  TransferStatus worst = TransferStatus::kCompleted;
  std::string worst_error;
  auto fold = [&](int index, TransferStatus status, const std::string& error, double elapsed,
                  const fobs::net::IoStats& io) {
    if (status == TransferStatus::kCompleted) {
      ++result.stripes_completed;
    } else if (severity(status) > severity(worst) || worst == TransferStatus::kCompleted) {
      worst = status;
      worst_error = "stripe " + std::to_string(index) + ": " + error;
    }
    slowest = std::max(slowest, elapsed);
    sum_io(result.io, io);
  };
  for (std::size_t i = 0; i < result.stripe_senders.size(); ++i) {
    const auto& r = result.stripe_senders[i];
    fold(static_cast<int>(i), r.status, r.error, r.elapsed_seconds, r.io);
  }
  for (std::size_t i = 0; i < result.stripe_receivers.size(); ++i) {
    const auto& r = result.stripe_receivers[i];
    fold(static_cast<int>(i), r.status, r.error, r.elapsed_seconds, r.io);
    result.packets_restored += r.packets_restored;
  }
  result.elapsed_seconds = slowest;
  if (result.stripes_completed == result.stripes && result.stripes > 0) {
    result.status = TransferStatus::kCompleted;
    result.error.clear();
    result.goodput_mbps = detail::mbps(object_bytes, slowest);
  } else {
    result.status = worst;
    result.error = worst_error;
    result.goodput_mbps = 0.0;
  }
  if (result.stripes < 2) return;  // a plain transfer, not a striped one
  auto& metrics = telemetry::MetricsRegistry::global();
  if (result.completed()) {
    metrics.counter("fobs.stripe.completed").inc();
  } else if (result.degraded()) {
    metrics.counter("fobs.stripe.degraded").inc();
  }
}

/// Per-stripe endpoint options: shared knobs plus the optional
/// per-stripe fault-plan override.
EndpointOptions stripe_endpoint(const EndpointOptions& base,
                                const std::vector<std::string>& overrides, int index) {
  EndpointOptions endpoint = base;
  if (index >= 0 && static_cast<std::size_t>(index) < overrides.size() &&
      !overrides[static_cast<std::size_t>(index)].empty()) {
    endpoint.fault_plan = overrides[static_cast<std::size_t>(index)];
  }
  return endpoint;
}

/// The plan `launch` settled on for an object of `object_bytes`; null
/// (with `error` set) when the launch is malformed or the geometry
/// cannot be split that way.
std::shared_ptr<const stripe::StripePlan> settle_plan(std::size_t object_bytes,
                                                      std::int64_t packet_bytes,
                                                      const StripeLaunch& launch,
                                                      std::string& error) {
  if (launch.peer_ports.size() != launch.sockets.size()) {
    error = "invalid launch: needs one (peer port, bound socket) pair per stripe";
    return nullptr;
  }
  stripe::StripePlan plan;
  if (!stripe::StripePlan::make({static_cast<std::int64_t>(object_bytes), packet_bytes},
                                static_cast<int>(launch.sockets.size()), launch.layout,
                                &plan, &error)) {
    error = "invalid launch: " + error;
    return nullptr;
  }
  return std::make_shared<const stripe::StripePlan>(std::move(plan));
}

/// Shared by the async sender path: collects per-stripe results as
/// sessions finish and fires the caller's on_complete after the last.
struct SendAggregation {
  std::mutex mu;
  int remaining = 0;
  std::int64_t object_bytes = 0;
  StripedResult result;
  std::function<void(const StripedResult&)> on_complete;

  void stripe_done(int index, const SenderResult& stripe_result) {
    std::function<void(const StripedResult&)> fire;
    {
      std::lock_guard lock(mu);
      result.stripe_senders[static_cast<std::size_t>(index)] = stripe_result;
      if (--remaining == 0) {
        finalize_aggregate(result, object_bytes);
        fire = std::move(on_complete);
      }
    }
    if (fire) fire(result);
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Negotiation: settles a StripeLaunch (runs only when K > 1 was asked for)
// ---------------------------------------------------------------------------

namespace {

/// Reads one FOBSSTRP frame: the fixed part first (its stripe count, at
/// byte 11, sizes the rest), then the port list and CRC trailer. Empty
/// on a short read or an oversized count; decoding checks the rest.
std::vector<std::uint8_t> read_stripe_frame(int fd, std::size_t fixed_size,
                                            std::size_t (*frame_size)(int),
                                            Clock::time_point deadline) {
  std::vector<std::uint8_t> frame(fixed_size);
  if (!net::read_exact(fd, frame.data(), fixed_size, deadline)) return {};
  const int count = util::get_u16(frame.data() + 11);
  if (count > stripe::kMaxStripes) return {};
  frame.resize(frame_size(count));
  if (!net::read_exact(fd, frame.data() + fixed_size, frame.size() - fixed_size, deadline)) {
    return {};
  }
  return frame;
}

/// Sender side of FOBSSTRP: accepts one negotiation on `listener` (or,
/// when that is not valid, on options.negotiation_port), clamps the
/// stripe count and answers. Settles on the granted plan, or on the
/// 1-stripe plan on the negotiation listener when no control port is
/// free. nullopt sets `error`; every listener is closed then.
std::optional<StripeLaunch> negotiate_send(const TransferEngine& engine,
                                           const StripedSenderOptions& options, Fd listener,
                                           std::size_t object_bytes, std::string& error) {
  auto fail = [&](const std::string& why) -> std::optional<StripeLaunch> {
    error = why;
    return std::nullopt;
  };
  auto& metrics = telemetry::MetricsRegistry::global();
  metrics.counter("fobs.stripe.transfers").inc();
  const fobs::core::TransferSpec spec{static_cast<std::int64_t>(object_bytes),
                                      options.endpoint.packet_bytes};
  if (!listener.valid() && options.negotiation_port == 0) {
    return fail("negotiation_port must be non-zero");
  }
  if (options.max_stripes < 1) return fail("max_stripes must be >= 1");
  if (stripe::StripePlan::max_stripes(spec) < 1) return fail("empty object or bad packet size");

  // Accept exactly one negotiation connection, with the endpoint's
  // whole timeout as budget (the receiver connects right after its
  // catalog exchange, so in practice this is milliseconds).
  if (!listener.valid()) listener = net::listen_tcp(options.negotiation_port, 1);
  if (!listener.valid()) return fail("negotiation listen failed");
  const auto deadline = Clock::now() + std::chrono::milliseconds(options.endpoint.timeout_ms);
  StripeLaunch launch;
  Fd conn = net::accept_until(listener.get(), deadline, &launch.peer_host);
  if (!conn.valid()) return fail("no negotiation connection before the deadline");

  const auto frame = read_stripe_frame(conn.get(), stripe::kStripeRequestFixedSize,
                                       stripe::stripe_request_size, deadline);
  const auto request = stripe::decode_stripe_request(frame.data(), frame.size());
  if (!request) return fail("negotiation request truncated or malformed");
  launch.layout = request->layout;

  auto respond = [&](std::vector<std::uint16_t> control_ports) {
    const auto encoded =
        stripe::encode_stripe_response(stripe::StripeResponse{request->layout, control_ports});
    return net::send_all(conn.get(), encoded.data(), encoded.size(), deadline);
  };

  if (request->object_bytes != spec.object_bytes ||
      request->packet_bytes != spec.packet_bytes) {
    // The peer expects a different object: refuse loudly. No fallback —
    // a single flow would disagree about geometry just the same.
    respond({});
    metrics.counter("fobs.stripe.negotiation_rejected").inc();
    return fail("peer geometry mismatch (object or packet size)");
  }

  // Clamp the stripe count: peer's ask, our cap, and the object's packet
  // count. The plan is then valid by construction.
  const int wanted = std::min({static_cast<int>(request->data_ports.size()),
                               options.max_stripes, stripe::StripePlan::max_stripes(spec)});
  // Listen on every stripe's control port before answering, so each
  // advertised port already accepts; the stripe count shrinks to the
  // listeners the engine's range has room for.
  std::vector<std::uint16_t> control_ports;
  for (int i = 0; i < wanted; ++i) {
    Fd control = engine.listen_control_port();
    if (!control.valid()) break;
    control_ports.push_back(net::local_port(control.get()));
    launch.sockets.push_back(std::move(control));
  }
  const int accepted = static_cast<int>(launch.sockets.size());

  if (accepted == 0) {
    // Out of ports: refuse striping but keep the transfer alive — the
    // 1-stripe plan on the negotiation listener itself, which is
    // exactly where the refused receiver falls back to. It stays open,
    // so that receiver's control connect waits in its backlog.
    if (!respond({})) return fail("negotiation response failed");
    metrics.counter("fobs.stripe.negotiation_rejected").inc();
    metrics.counter("fobs.stripe.fallbacks").inc();
    launch.peer_ports = {request->data_ports.front()};
    launch.sockets.push_back(std::move(listener));
    launch.fallback_single_flow = true;
    return launch;
  }
  if (!respond(control_ports)) return fail("negotiation response failed");
  metrics.counter("fobs.stripe.sessions").inc(accepted);
  launch.peer_ports.assign(request->data_ports.begin(), request->data_ports.begin() + accepted);
  return launch;
}

/// Receiver side of FOBSSTRP over `sockets`, the bound data sockets
/// whose ports the request names: asks for options.stripes, at most one
/// per socket. Settles on the granted plan, or on a refusal (or a
/// pre-striping peer) on the 1-stripe plan on the first socket and the
/// negotiation port. nullopt sets `result`'s status and error.
std::optional<StripeLaunch> negotiate_receive(const StripedReceiverOptions& options,
                                              std::vector<Fd> sockets,
                                              std::size_t buffer_bytes, StripedResult& result) {
  auto fail = [&](TransferStatus status,
                  const std::string& why) -> std::optional<StripeLaunch> {
    result.status = status;
    result.error = why;
    return std::nullopt;
  };
  auto& metrics = telemetry::MetricsRegistry::global();
  metrics.counter("fobs.stripe.transfers").inc();
  const fobs::core::TransferSpec spec{static_cast<std::int64_t>(buffer_bytes),
                                      options.endpoint.packet_bytes};
  // max_stripes(spec) is 0 for an empty buffer or a bad packet size.
  const int wanted = std::min({options.stripes, stripe::kMaxStripes,
                               stripe::StripePlan::max_stripes(spec)});
  const char* invalid = nullptr;
  if (options.negotiation_port == 0) {
    invalid = "negotiation_port must be non-zero";
  } else if (!net::make_addr(options.sender_host, options.negotiation_port)) {
    invalid = "host must be an IPv4 address";
  } else if (wanted < 1) {
    invalid = "stripes must be >= 1, with a non-empty buffer and a positive packet size";
  }
  if (invalid != nullptr) return fail(TransferStatus::kBadOptions, invalid);
  if (sockets.empty()) {
    return fail(TransferStatus::kSocketError,
                "udp bind failed on data port " + std::to_string(options.data_port_base));
  }
  const int requested = std::min(wanted, static_cast<int>(sockets.size()));
  sockets.resize(static_cast<std::size_t>(requested));

  const auto deadline = Clock::now() + std::chrono::milliseconds(options.endpoint.timeout_ms);
  Fd conn = net::connect_with_backoff(options.sender_host, options.negotiation_port, deadline);
  if (!conn.valid()) return fail(TransferStatus::kPeerLost, "negotiation connect timeout");
  stripe::StripeRequest request;
  request.layout = options.layout;
  request.object_bytes = spec.object_bytes;
  request.packet_bytes = spec.packet_bytes;
  for (const Fd& socket : sockets) request.data_ports.push_back(net::local_port(socket.get()));
  const auto encoded = stripe::encode_stripe_request(request);
  std::vector<std::uint8_t> frame;
  if (net::send_all(conn.get(), encoded.data(), encoded.size(), deadline)) {
    frame = read_stripe_frame(conn.get(), stripe::kStripeResponseFixedSize,
                              stripe::stripe_response_size, deadline);
  }
  conn.reset();
  const auto response = stripe::decode_stripe_response(frame.data(), frame.size());
  const char* refusal = nullptr;
  if (frame.empty()) {
    // A legacy sender drops the connection on the unknown token: the
    // read fails cleanly and we fall back to one plain flow.
    refusal = "peer rejected stripe negotiation";
  } else if (!response || response->accepted() > requested) {
    refusal = "stripe negotiation response malformed";
  } else if (response->accepted() == 0) {
    // Explicit refusal: the sender now serves the 1-stripe plan on the
    // negotiation port.
    refusal = "peer refused stripe negotiation";
  }

  StripeLaunch launch;
  if (refusal == nullptr) {
    metrics.counter("fobs.stripe.sessions").inc(response->accepted());
    launch.layout = response->layout;
    launch.peer_ports = response->control_ports;
    sockets.resize(launch.peer_ports.size());
    launch.sockets = std::move(sockets);
    return launch;
  }
  metrics.counter("fobs.stripe.negotiation_rejected").inc();
  if (!options.allow_single_flow_fallback) return fail(TransferStatus::kPeerLost, refusal);
  metrics.counter("fobs.stripe.fallbacks").inc();
  launch.layout = options.layout;
  launch.peer_ports = {options.negotiation_port};
  launch.sockets.push_back(std::move(sockets.front()));
  launch.fallback_single_flow = true;
  return launch;
}

}  // namespace

// ---------------------------------------------------------------------------
// Launch: K sessions, one aggregate
// ---------------------------------------------------------------------------

bool TransferEngine::launch_striped_send(const StripedSenderOptions& options,
                                         std::span<const std::uint8_t> object,
                                         StripeLaunch launch, StripedSessionParams params,
                                         std::string* error) {
  std::string plan_error;
  const auto plan =
      settle_plan(object.size(), options.endpoint.packet_bytes, launch, plan_error);
  if (!plan) {
    if (error != nullptr) *error = plan_error;
    return false;
  }
  const int stripes = plan->stripe_count();
  auto agg = std::make_shared<SendAggregation>();
  agg->remaining = stripes;
  agg->object_bytes = plan->spec().object_bytes;
  agg->result.is_sender = true;
  agg->result.fallback_single_flow = launch.fallback_single_flow;
  agg->result.stripes = stripes;
  agg->result.layout = plan->layout();
  agg->result.stripe_senders.resize(static_cast<std::size_t>(stripes));
  agg->on_complete = std::move(params.on_complete);
  for (int i = 0; i < stripes; ++i) {
    SenderOptions session;
    session.receiver_host = launch.peer_host;
    session.data_port = launch.peer_ports[static_cast<std::size_t>(i)];
    session.core = options.core;
    session.endpoint = stripe_endpoint(options.endpoint, options.stripe_fault_plans, i);
    session.stripe = {plan, i};
    SessionParams session_params;
    session_params.keepalive = params.keepalive;  // shared across stripes
    session_params.socket = std::move(launch.sockets[static_cast<std::size_t>(i)]);
    session_params.on_exit = [agg, i](const TransferHandle& handle) {
      agg->stripe_done(i, handle.sender_result());
    };
    submit_send(session, object, std::move(session_params));
  }
  return true;
}

StripedResult TransferEngine::launch_striped_receive(const StripedReceiverOptions& options,
                                                     std::span<std::uint8_t> buffer,
                                                     StripeLaunch launch) {
  StripedResult result;
  result.is_sender = false;
  result.status = TransferStatus::kBadOptions;
  const auto plan =
      settle_plan(buffer.size(), options.endpoint.packet_bytes, launch, result.error);
  if (!plan) return result;
  const int stripes = plan->stripe_count();
  result.stripes = stripes;
  result.layout = plan->layout();
  result.fallback_single_flow = launch.fallback_single_flow;

  std::vector<TransferHandle> handles;
  handles.reserve(static_cast<std::size_t>(stripes));
  for (int i = 0; i < stripes; ++i) {
    ReceiverOptions session;
    session.sender_host = options.sender_host;
    session.control_port = launch.peer_ports[static_cast<std::size_t>(i)];
    session.core = options.core;
    session.checkpoint_path = options.checkpoint_base;
    session.endpoint = stripe_endpoint(options.endpoint, options.stripe_fault_plans, i);
    session.stripe = {plan, i};
    SessionParams session_params;
    session_params.socket = std::move(launch.sockets[static_cast<std::size_t>(i)]);
    handles.push_back(submit_receive(session, buffer, std::move(session_params)));
  }
  result.stripe_receivers.resize(static_cast<std::size_t>(stripes));
  for (int i = 0; i < stripes; ++i) {
    handles[static_cast<std::size_t>(i)].wait();
    result.stripe_receivers[static_cast<std::size_t>(i)] =
        handles[static_cast<std::size_t>(i)].receiver_result();
  }
  finalize_aggregate(result, plan->spec().object_bytes);
  if (stripes > 1 && result.packets_restored > 0) {
    telemetry::MetricsRegistry::global().counter("fobs.stripe.resumes").inc();
  }

  // Every session keeps its own file of the base (fobs/posix/checkpoint.h);
  // a 1-stripe session removes them all itself when it completes.
  const std::string& base = options.checkpoint_base;
  if (base.empty()) return result;
  if (result.completed()) {
    if (stripes > 1) remove_striped_checkpoints(base);
  } else if (const auto known = load_checkpoints(base, plan->spec().object_bytes,
                                                 plan->spec().packet_bytes)) {
    result.resumable = known->received_count > 0;
  }
  return result;
}

bool TransferEngine::submit_striped_send(const StripedSenderOptions& options,
                                         std::span<const std::uint8_t> object,
                                         StripedSessionParams params, std::string* error) {
  std::string why;
  auto launch = negotiate_send(*this, options, std::move(params.listener), object.size(), why);
  if (!launch) {
    telemetry::MetricsRegistry::global().counter("fobs.stripe.negotiation_failures").inc();
    if (error != nullptr) *error = why;
    return false;
  }
  return launch_striped_send(options, object, std::move(*launch), std::move(params), error);
}

StripedResult TransferEngine::run_striped_sender(const StripedSenderOptions& options,
                                                 std::span<const std::uint8_t> object) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  StripedResult result;
  StripedSessionParams params;
  params.on_complete = [&](const StripedResult& aggregate) {
    // Notify under the mutex: the waiter owns cv on its stack and may
    // destroy it the moment it can reacquire mu, so the broadcast must
    // complete before this thread releases the lock.
    std::lock_guard lock(mu);
    result = aggregate;
    done = true;
    cv.notify_all();
  };
  std::string error;
  if (!submit_striped_send(options, object, std::move(params), &error)) {
    result.is_sender = true;
    result.status = TransferStatus::kPeerLost;
    result.error = error;
    return result;
  }
  std::unique_lock lock(mu);
  cv.wait(lock, [&] { return done; });
  return result;
}

StripedResult TransferEngine::run_striped_receiver(const StripedReceiverOptions& options,
                                                   std::span<std::uint8_t> buffer) {
  return run_striped_receiver(
      options, buffer,
      bind_data_sockets(options.data_port_base, std::min(options.stripes, stripe::kMaxStripes)));
}

StripedResult TransferEngine::run_striped_receiver(const StripedReceiverOptions& options,
                                                   std::span<std::uint8_t> buffer,
                                                   std::vector<net::Fd> data_sockets) {
  StripedResult result;
  result.is_sender = false;
  auto launch = negotiate_receive(options, std::move(data_sockets), buffer.size(), result);
  if (!launch) return result;
  return launch_striped_receive(options, buffer, std::move(*launch));
}

std::vector<net::Fd> bind_data_sockets(std::uint16_t base, int count) {
  std::vector<net::Fd> sockets;
  for (int i = 0; i < count; ++i) {
    const auto port = base == 0 ? 0u : std::uint32_t{base} + static_cast<std::uint32_t>(i);
    if (port > 0xFFFF) break;
    Fd socket = net::bind_udp(static_cast<std::uint16_t>(port));
    if (!socket.valid()) break;
    sockets.push_back(std::move(socket));
  }
  return sockets;
}

}  // namespace fobs::posix
