#include "fobs/stripe/striped_transfer.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>

#include "common/bitmap.h"
#include "common/byte_order.h"
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
// Checkpoint merge / split
// ---------------------------------------------------------------------------

std::string stripe_checkpoint_path(const std::string& base, int index) {
  return base + ".s" + std::to_string(index);
}

std::optional<Checkpoint> merge_striped_checkpoint(const std::string& base,
                                                   const stripe::StripePlan& plan) {
  const auto& spec = plan.spec();
  const auto packets = static_cast<std::size_t>(spec.packet_count());
  fobs::util::Bitmap global(packets);
  bool any = false;
  if (const auto object_level = load_checkpoint(base)) {
    if (object_level->object_bytes == spec.object_bytes &&
        object_level->packet_bytes == spec.packet_bytes) {
      global.merge_range(0, packets, object_level->bitmap.data(), object_level->bitmap.size());
      any = true;
    }
  }
  for (int s = 0; s < plan.stripe_count(); ++s) {
    const auto sidecar = load_checkpoint(stripe_checkpoint_path(base, s));
    if (!sidecar) continue;
    const auto local_spec = plan.stripe_spec(s);
    if (sidecar->object_bytes != local_spec.object_bytes ||
        sidecar->packet_bytes != local_spec.packet_bytes) {
      continue;  // from a different plan: unusable, not an error
    }
    const auto local_packets = static_cast<std::size_t>(plan.stripe_packets(s));
    fobs::util::Bitmap local(local_packets);
    local.merge_range(0, local_packets, sidecar->bitmap.data(), sidecar->bitmap.size());
    for (std::size_t j = 0; j < local_packets; ++j) {
      if (local.test(j)) {
        global.set(static_cast<std::size_t>(
            plan.to_global(s, static_cast<fobs::core::PacketSeq>(j))));
      }
    }
    any = true;
  }
  if (!any || global.none_set()) return std::nullopt;
  Checkpoint merged;
  merged.object_bytes = spec.object_bytes;
  merged.packet_bytes = spec.packet_bytes;
  merged.received_count = static_cast<std::int64_t>(global.count());
  merged.bitmap = global.extract_range(0, packets);
  if (!save_checkpoint(base, merged)) return std::nullopt;
  return merged;
}

bool split_striped_checkpoint(const std::string& base, const stripe::StripePlan& plan) {
  const auto& spec = plan.spec();
  const auto object_level = load_checkpoint(base);
  if (!object_level || object_level->object_bytes != spec.object_bytes ||
      object_level->packet_bytes != spec.packet_bytes) {
    return false;
  }
  const auto packets = static_cast<std::size_t>(spec.packet_count());
  fobs::util::Bitmap global(packets);
  global.merge_range(0, packets, object_level->bitmap.data(), object_level->bitmap.size());
  for (int s = 0; s < plan.stripe_count(); ++s) {
    const auto path = stripe_checkpoint_path(base, s);
    const auto local_spec = plan.stripe_spec(s);
    const auto local_packets = static_cast<std::size_t>(plan.stripe_packets(s));
    fobs::util::Bitmap local(local_packets);
    if (const auto existing = load_checkpoint(path)) {
      if (existing->object_bytes == local_spec.object_bytes &&
          existing->packet_bytes == local_spec.packet_bytes) {
        local.merge_range(0, local_packets, existing->bitmap.data(), existing->bitmap.size());
      }
    }
    for (std::size_t j = 0; j < local_packets; ++j) {
      if (global.test(static_cast<std::size_t>(
              plan.to_global(s, static_cast<fobs::core::PacketSeq>(j))))) {
        local.set(j);
      }
    }
    if (local.none_set()) continue;
    Checkpoint sidecar;
    sidecar.object_bytes = local_spec.object_bytes;
    sidecar.packet_bytes = local_spec.packet_bytes;
    sidecar.received_count = static_cast<std::int64_t>(local.count());
    sidecar.bitmap = local.extract_range(0, local_packets);
    save_checkpoint(path, sidecar);
  }
  remove_checkpoint(base);
  return true;
}

void remove_striped_checkpoints(const std::string& base) {
  remove_checkpoint(base);
  for (int s = 0; s < stripe::kMaxStripes; ++s) {
    remove_checkpoint(stripe_checkpoint_path(base, s));
  }
}

// ---------------------------------------------------------------------------
// Sender orchestration
// ---------------------------------------------------------------------------

std::optional<int> TransferEngine::submit_striped_send(const StripedSenderOptions& options,
                                                       std::span<const std::uint8_t> object,
                                                       StripedSessionParams params,
                                                       std::string* error) {
  auto fail = [&](const std::string& why) -> std::optional<int> {
    if (error != nullptr) *error = why;
    if (options.negotiation_port_owned) release_control_port(options.negotiation_port);
    telemetry::MetricsRegistry::global().counter("fobs.stripe.negotiation_failures").inc();
    return std::nullopt;
  };
  auto& metrics = telemetry::MetricsRegistry::global();
  metrics.counter("fobs.stripe.transfers").inc();
  if (options.negotiation_port == 0) return fail("negotiation_port must be non-zero");
  if (options.max_stripes < 1) return fail("max_stripes must be >= 1");
  if (object.empty()) return fail("cannot send an empty object");
  if (options.endpoint.packet_bytes <= 0) return fail("packet_bytes must be positive");
  const fobs::core::TransferSpec spec{static_cast<std::int64_t>(object.size()),
                                      options.endpoint.packet_bytes};

  // Accept exactly one negotiation connection, with the endpoint's
  // whole timeout as budget (the receiver connects right after its
  // catalog exchange, so in practice this is milliseconds).
  Fd listener = net::listen_tcp(options.negotiation_port, 1);
  if (!listener.valid()) return fail("negotiation listen failed");
  const auto deadline = Clock::now() + std::chrono::milliseconds(options.endpoint.timeout_ms);
  std::string peer_host;
  Fd conn = net::accept_until(listener.get(), deadline, &peer_host);
  if (!conn.valid()) return fail("no negotiation connection before the deadline");

  // Read the FOBSSTRP request: fixed part first (it carries the stripe
  // count), then the port list + CRC trailer.
  std::vector<std::uint8_t> frame(stripe::kStripeRequestFixedSize);
  if (!net::read_exact(conn.get(), frame.data(), frame.size(), deadline)) {
    return fail("negotiation request truncated");
  }
  const int requested = util::get_u16(frame.data() + 11);
  if (requested < 1 || requested > stripe::kMaxStripes) {
    return fail("negotiation request malformed");
  }
  frame.resize(stripe::stripe_request_size(requested));
  if (!net::read_exact(conn.get(), frame.data() + stripe::kStripeRequestFixedSize,
                       frame.size() - stripe::kStripeRequestFixedSize, deadline)) {
    return fail("negotiation request truncated");
  }
  const auto request = stripe::decode_stripe_request(frame.data(), frame.size());
  if (!request) return fail("negotiation request rejected (bad token/version/CRC)");

  auto respond = [&](const stripe::StripeResponse& response) {
    const auto encoded = stripe::encode_stripe_response(response);
    return net::send_all(conn.get(), encoded.data(), encoded.size(), deadline);
  };

  if (request->object_bytes != spec.object_bytes ||
      request->packet_bytes != spec.packet_bytes) {
    // The peer expects a different object: refuse loudly. No fallback —
    // a single flow would disagree about geometry just the same.
    respond(stripe::StripeResponse{request->layout, {}});
    metrics.counter("fobs.stripe.negotiation_rejected").inc();
    return fail("peer geometry mismatch (object or packet size)");
  }

  // Clamp the stripe count: peer's ask, our cap, the object's packet
  // count, and — when the engine's allocator is enabled — the largest
  // contiguous control-port block we can lease.
  int accepted = std::min({requested, options.max_stripes, stripe::StripePlan::max_stripes(spec)});
  std::vector<std::uint16_t> control_ports;
  bool ports_owned = false;  // leased from the engine allocator
  if (control_port_capacity() > 0) {
    // Allocator configured: lease the largest contiguous block that
    // fits, shrinking the stripe count to what is actually free.
    for (; accepted >= 1; --accepted) {
      if (const auto first = allocate_control_port_block(static_cast<std::size_t>(accepted))) {
        control_ports.resize(static_cast<std::size_t>(accepted));
        for (int i = 0; i < accepted; ++i) {
          control_ports[static_cast<std::size_t>(i)] = static_cast<std::uint16_t>(*first + i);
        }
        ports_owned = true;
        break;
      }
    }
  } else {
    // No allocator configured: derive per-stripe control ports from the
    // negotiation port (documented for CLI/standalone use).
    const int room = 0xFFFF - options.negotiation_port;
    accepted = std::min(accepted, room);
    if (accepted >= 1) {
      control_ports.resize(static_cast<std::size_t>(accepted));
      for (int i = 0; i < accepted; ++i) {
        control_ports[static_cast<std::size_t>(i)] =
            static_cast<std::uint16_t>(options.negotiation_port + 1 + i);
      }
    }
  }

  std::shared_ptr<const stripe::StripePlan> plan;  // null: the single-flow fallback
  if (control_ports.empty()) {
    // Out of ports: refuse striping but keep the transfer alive — serve
    // one plain flow on the negotiation port itself (the receiver falls
    // back to exactly that pairing).
    if (!respond(stripe::StripeResponse{request->layout, {}})) {
      return fail("negotiation response failed");
    }
    metrics.counter("fobs.stripe.negotiation_rejected").inc();
    metrics.counter("fobs.stripe.fallbacks").inc();
    accepted = 1;
    control_ports = {options.negotiation_port};
    ports_owned = options.negotiation_port_owned;
  } else {
    stripe::StripePlan plan_value;
    std::string plan_error;
    if (!stripe::StripePlan::make(spec, accepted, request->layout, &plan_value, &plan_error)) {
      if (ports_owned) release_control_port_block(control_ports.front(), control_ports.size());
      respond(stripe::StripeResponse{request->layout, {}});
      return fail("stripe plan rejected: " + plan_error);
    }
    if (!respond(stripe::StripeResponse{request->layout, control_ports})) {
      if (ports_owned) release_control_port_block(control_ports.front(), control_ports.size());
      return fail("negotiation response failed");
    }
    plan = std::make_shared<const stripe::StripePlan>(std::move(plan_value));
    metrics.counter("fobs.stripe.sessions").inc(accepted);
  }
  conn.reset();
  listener.reset();  // the fallback's run_sender re-binds this port for its control listener
  // Striping negotiated: the negotiation port has done its job.
  if (plan && options.negotiation_port_owned) release_control_port(options.negotiation_port);

  // One sender session per stripe (one plain session for the fallback).
  auto agg = std::make_shared<SendAggregation>();
  agg->remaining = accepted;
  agg->object_bytes = spec.object_bytes;
  agg->result.is_sender = true;
  agg->result.fallback_single_flow = plan == nullptr;
  agg->result.stripes = accepted;
  agg->result.layout = request->layout;
  agg->result.stripe_senders.resize(static_cast<std::size_t>(accepted));
  agg->on_complete = std::move(params.on_complete);
  for (int i = 0; i < accepted; ++i) {
    SenderOptions session;
    session.receiver_host = peer_host;
    session.data_port = request->data_ports[static_cast<std::size_t>(i)];
    session.control_port = control_ports[static_cast<std::size_t>(i)];
    session.core = options.core;
    session.endpoint = stripe_endpoint(options.endpoint, options.stripe_fault_plans, i);
    session.stripe = {plan, i};
    SessionParams session_params;
    session_params.keepalive = params.keepalive;  // shared across stripes
    if (ports_owned) session_params.owned_control_port = session.control_port;
    session_params.on_exit = [agg, i](const TransferHandle& handle) {
      agg->stripe_done(i, handle.sender_result());
    };
    submit_send(session, object, std::move(session_params));
  }
  return plan ? accepted : 0;
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

// ---------------------------------------------------------------------------
// Receiver orchestration
// ---------------------------------------------------------------------------

StripedResult TransferEngine::run_striped_receiver(const StripedReceiverOptions& options,
                                                   std::span<std::uint8_t> buffer) {
  StripedResult result;
  result.is_sender = false;
  result.status = TransferStatus::kBadOptions;
  auto& metrics = telemetry::MetricsRegistry::global();
  metrics.counter("fobs.stripe.transfers").inc();
  if (options.negotiation_port == 0 || options.data_port_base == 0) {
    result.error = "negotiation_port and data_port_base must be non-zero";
    return result;
  }
  if (options.endpoint.packet_bytes <= 0) {
    result.error = "packet_bytes must be positive";
    return result;
  }
  if (buffer.empty()) {
    result.error = "cannot receive into an empty buffer";
    return result;
  }
  const fobs::core::TransferSpec spec{static_cast<std::int64_t>(buffer.size()),
                                      options.endpoint.packet_bytes};
  int requested = std::min({options.stripes, stripe::kMaxStripes,
                            stripe::StripePlan::max_stripes(spec)});
  if (requested < 1) {
    result.error = "stripes must be >= 1";
    return result;
  }
  if (options.data_port_base + requested - 1 > 0xFFFF) {
    result.error = "data port block exceeds the port space";
    return result;
  }

  // --- FOBSSTRP negotiation ----------------------------------------------
  const auto deadline = Clock::now() + std::chrono::milliseconds(options.endpoint.timeout_ms);
  Fd conn = net::connect_with_backoff(options.sender_host, options.negotiation_port, deadline);
  if (!conn.valid()) {
    result.status = TransferStatus::kPeerLost;
    result.error = "negotiation connect timeout";
    return result;
  }
  stripe::StripeRequest request;
  request.layout = options.layout;
  request.object_bytes = spec.object_bytes;
  request.packet_bytes = spec.packet_bytes;
  request.data_ports.resize(static_cast<std::size_t>(requested));
  for (int i = 0; i < requested; ++i) {
    request.data_ports[static_cast<std::size_t>(i)] =
        static_cast<std::uint16_t>(options.data_port_base + i);
  }
  const auto encoded = stripe::encode_stripe_request(request);
  std::optional<stripe::StripeResponse> response;
  const char* refusal = nullptr;
  std::vector<std::uint8_t> frame(stripe::kStripeResponseFixedSize);
  if (!net::send_all(conn.get(), encoded.data(), encoded.size(), deadline) ||
      !net::read_exact(conn.get(), frame.data(), frame.size(), deadline)) {
    // A legacy sender drops the connection on the unknown token: the
    // read fails cleanly and we fall back to one plain flow.
    refusal = "peer rejected stripe negotiation";
  } else {
    const int accepted_count = util::get_u16(frame.data() + 11);
    if (accepted_count <= stripe::kMaxStripes) {
      frame.resize(stripe::stripe_response_size(accepted_count));
      if (net::read_exact(conn.get(), frame.data() + stripe::kStripeResponseFixedSize,
                          frame.size() - stripe::kStripeResponseFixedSize, deadline)) {
        response = stripe::decode_stripe_response(frame.data(), frame.size());
      }
    }
    if (!response || response->accepted() > requested) {
      refusal = "stripe negotiation response malformed";
    } else if (response->accepted() == 0) {
      // Explicit refusal: the sender is now serving one plain flow on
      // the negotiation port.
      refusal = "peer refused stripe negotiation";
    }
  }
  conn.reset();

  std::shared_ptr<const stripe::StripePlan> plan;  // null: the single-flow fallback
  std::vector<std::uint16_t> control_ports;
  if (refusal != nullptr) {
    metrics.counter("fobs.stripe.negotiation_rejected").inc();
    if (!options.allow_single_flow_fallback) {
      result.status = TransferStatus::kPeerLost;
      result.error = refusal;
      return result;
    }
    metrics.counter("fobs.stripe.fallbacks").inc();
    result.fallback_single_flow = true;
    result.stripes = 1;
    result.layout = options.layout;
    control_ports = {options.negotiation_port};
    // A single-flow resume needs the object-level checkpoint; fold any
    // striped sidecars from a previous attempt into it first.
    if (!options.checkpoint_base.empty()) {
      stripe::StripePlan prior;
      if (stripe::StripePlan::make(spec, requested, options.layout, &prior)) {
        merge_striped_checkpoint(options.checkpoint_base, prior);
      }
    }
  } else {
    stripe::StripePlan plan_value;
    std::string plan_error;
    if (!stripe::StripePlan::make(spec, response->accepted(), response->layout, &plan_value,
                                  &plan_error)) {
      result.error = "stripe plan rejected: " + plan_error;
      return result;
    }
    plan = std::make_shared<const stripe::StripePlan>(std::move(plan_value));
    result.stripes = response->accepted();
    result.layout = response->layout;
    control_ports = response->control_ports;
    metrics.counter("fobs.stripe.sessions").inc(result.stripes);
    // A previous single-flow attempt (or a merge after a degraded
    // striped one) may have left an object-level checkpoint: split it
    // into per-stripe sidecars so every session resumes its own slice.
    if (!options.checkpoint_base.empty()) {
      split_striped_checkpoint(options.checkpoint_base, *plan);
    }
  }

  // --- one receive session per stripe (one plain one for the fallback) ---
  const int stripes = result.stripes;
  std::vector<TransferHandle> handles;
  handles.reserve(static_cast<std::size_t>(stripes));
  for (int i = 0; i < stripes; ++i) {
    ReceiverOptions session;
    session.sender_host = options.sender_host;
    session.data_port = static_cast<std::uint16_t>(options.data_port_base + i);
    session.control_port = control_ports[static_cast<std::size_t>(i)];
    session.core = options.core;
    session.checkpoint_every_acks = options.checkpoint_every_acks;
    if (!options.checkpoint_base.empty()) {
      session.checkpoint_path =
          plan ? stripe_checkpoint_path(options.checkpoint_base, i) : options.checkpoint_base;
    }
    session.endpoint = stripe_endpoint(options.endpoint, options.stripe_fault_plans, i);
    session.stripe = {plan, i};
    handles.push_back(submit_receive(session, buffer));
  }
  result.stripe_receivers.resize(static_cast<std::size_t>(stripes));
  for (int i = 0; i < stripes; ++i) {
    handles[static_cast<std::size_t>(i)].wait();
    result.stripe_receivers[static_cast<std::size_t>(i)] =
        handles[static_cast<std::size_t>(i)].receiver_result();
  }
  finalize_aggregate(result, spec.object_bytes);
  if (!plan) {
    result.resumable = !result.completed() && !options.checkpoint_base.empty();
    return result;
  }
  if (result.packets_restored > 0) metrics.counter("fobs.stripe.resumes").inc();

  // Checkpoint post-pass: completed stripes removed their sidecars, so
  // after a partial failure rewrite them as full bitmaps — then merge
  // everything into the object-level file so a *single-flow* retry can
  // resume too (the per-stripe sidecars stay for a striped retry).
  if (!options.checkpoint_base.empty()) {
    if (result.completed()) {
      remove_striped_checkpoints(options.checkpoint_base);
    } else {
      for (int i = 0; i < stripes; ++i) {
        if (result.stripe_receivers[static_cast<std::size_t>(i)].status !=
            TransferStatus::kCompleted) {
          continue;
        }
        const auto local_packets = static_cast<std::size_t>(plan->stripe_packets(i));
        fobs::util::Bitmap full(local_packets);
        full.set_all();
        Checkpoint sidecar;
        sidecar.object_bytes = plan->stripe_bytes(i);
        sidecar.packet_bytes = spec.packet_bytes;
        sidecar.received_count = static_cast<std::int64_t>(local_packets);
        sidecar.bitmap = full.extract_range(0, local_packets);
        save_checkpoint(stripe_checkpoint_path(options.checkpoint_base, i), sidecar);
      }
      result.resumable = merge_striped_checkpoint(options.checkpoint_base, *plan).has_value();
    }
  }
  return result;
}

}  // namespace fobs::posix
