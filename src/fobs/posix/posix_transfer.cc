#include "fobs/posix/posix_transfer.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <thread>
#include <vector>

#include "common/byte_order.h"
#include "common/log.h"
#include "fobs/posix/checkpoint.h"
#include "fobs/posix/codec.h"
#include "fobs/session.h"
#include "net/datagram_channel.h"
#include "net/socket.h"
#include "telemetry/metrics.h"

namespace fobs::posix {

namespace {

using Clock = std::chrono::steady_clock;
using net::Fd;

std::int64_t ns_since(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start).count();
}

/// Records the terminal trace event for a non-completed status: the
/// give-up statuses map to a timeout event, hard failures to an error
/// event, and completion/cancellation to none.
void end_trace(fobs::telemetry::EventTracer* tracer, TransferStatus status) {
  if (tracer == nullptr) return;
  switch (status) {
    case TransferStatus::kCompleted:
    case TransferStatus::kCancelled:
      return;
    case TransferStatus::kTimeout:
    case TransferStatus::kStalled:
    case TransferStatus::kPeerLost:
      tracer->record(telemetry::EventType::kTimeout);
      return;
    default:
      tracer->record(telemetry::EventType::kError);
      return;
  }
}

/// Scope guard that classifies the final status into the per-outcome
/// metrics counters on every exit path — the early option/socket
/// failures included, so the counters always sum to the number of runs.
class OutcomeScope {
 public:
  OutcomeScope(telemetry::MetricsRegistry& metrics, const char* side,
               const TransferStatus& status)
      : metrics_(metrics), side_(side), status_(status) {}
  ~OutcomeScope() {
    const char* outcome = "errors";
    switch (status_) {
      case TransferStatus::kCompleted: outcome = "completed"; break;
      case TransferStatus::kTimeout:
      case TransferStatus::kStalled:
      case TransferStatus::kPeerLost: outcome = "timeouts"; break;
      case TransferStatus::kCancelled: outcome = "cancelled"; break;
      default: break;
    }
    metrics_.counter(std::string("fobs.posix.") + side_ + "." + outcome).inc();
  }
  OutcomeScope(const OutcomeScope&) = delete;
  OutcomeScope& operator=(const OutcomeScope&) = delete;

 private:
  telemetry::MetricsRegistry& metrics_;
  const char* side_;
  const TransferStatus& status_;
};

/// The options both endpoints share, checked in order: the error, or ""
/// when valid. `host_ok`: the peer's host parsed as an IPv4 address.
std::string check_options(std::uint16_t data_port, std::uint16_t control_port, bool host_ok,
                          const EndpointOptions& endpoint, std::size_t object_bytes,
                          const char* empty_error) {
  if (data_port == 0 || control_port == 0) {
    return "invalid options: data_port and control_port must be non-zero";
  }
  if (!host_ok) return "invalid options: host must be an IPv4 address";
  if (endpoint.packet_bytes <= 0) return "invalid options: packet_bytes must be positive";
  if (std::string io_invalid = endpoint.io.validate(); !io_invalid.empty()) {
    return "invalid options: " + io_invalid;
  }
  if (object_bytes == 0) return std::string("invalid options: ") + empty_error;
  return {};
}

bool cancel_requested(const std::atomic<bool>* cancel) {
  return cancel != nullptr && cancel->load(std::memory_order_relaxed);
}

/// The stripe this session runs: `ref` validated against the geometry
/// of the whole object, or stripe 0 of the 1-stripe contiguous plan
/// when `ref` is null. The drivers run in the stripe-local sequence
/// space of plan.stripe_spec(index); payload offsets and checkpoint
/// bits go through the plan. Inactive (with `error` set) on any
/// mismatch — a wrong plan silently corrupting offsets is the failure
/// mode guarded against here.
stripe::StripeRef resolve_stripe(const stripe::StripeRef& ref,
                                 const fobs::core::TransferSpec& whole, std::string& error) {
  if (!ref.active()) {
    stripe::StripePlan plan;
    if (!stripe::StripePlan::make(whole, 1, stripe::StripeLayout::kContiguous, &plan, &error)) {
      error = "invalid options: " + error;
      return {};
    }
    return {std::make_shared<const stripe::StripePlan>(std::move(plan)), 0};
  }
  if (ref.index < 0 || ref.index >= ref.plan->stripe_count()) {
    error = "invalid options: stripe index outside the plan";
    return {};
  }
  if (ref.plan->spec().object_bytes != whole.object_bytes ||
      ref.plan->spec().packet_bytes != whole.packet_bytes) {
    error = "invalid options: stripe plan does not match this transfer's geometry";
    return {};
  }
  return ref;
}

/// Resolves the fault plan for one endpoint: the options field wins,
/// otherwise FOBS_FAULT_PLAN from the environment. Returns false (and
/// sets `error`) on a malformed plan.
bool resolve_fault_plan(const std::string& from_options,
                        std::optional<fobs::net::FaultInjector>& injector,
                        std::string& error) {
  std::string spec = from_options;
  if (spec.empty()) {
    if (const char* env = std::getenv("FOBS_FAULT_PLAN")) spec = env;
  }
  if (spec.empty()) return true;
  std::string parse_error;
  const auto plan = fobs::net::FaultPlan::parse(spec, &parse_error);
  if (!plan) {
    error = "invalid fault plan: " + parse_error;
    return false;
  }
  if (!plan->empty()) injector.emplace(*plan);
  return true;
}

/// Arms the stall clock: `stall_intervals` intervals of `timeout_ms /
/// stall_intervals` (at least 1 ms) each, from `now_ns`.
template <typename Session>
void arm_stall(Session& session, std::int64_t now_ns, const EndpointOptions& endpoint) {
  const int intervals = std::max(1, endpoint.stall_intervals);
  const std::int64_t interval_ms = std::max(1, endpoint.timeout_ms / intervals);
  session.arm_stall_clock(now_ns, interval_ms * 1'000'000, intervals);
}

/// The checks that end a transfer loop early: cancellation, then the
/// session's stall budget, whose verdict tells a peer that never showed
/// up (a plain timeout) from progress that then stopped (a stall).
/// True, with the result's status and error set, when the loop must end.
template <typename Result, typename Session>
bool must_stop(Result& result, Session& session, const std::atomic<bool>* cancel,
               Clock::time_point start) {
  if (cancel_requested(cancel)) {
    result.status = TransferStatus::kCancelled;
    result.error = "cancelled";
    return true;
  }
  if (!session.stall_expired(ns_since(start))) return false;
  const bool stalled = session.give_up() == fobs::core::GiveUp::kStalled;
  result.status = stalled ? TransferStatus::kStalled : TransferStatus::kTimeout;
  result.error = stalled ? "stalled: no progress for the whole stall budget" : "timeout";
  return true;
}

}  // namespace

namespace detail {

double mbps(std::int64_t bytes, double seconds) {
  if (seconds <= 0) return 0.0;
  return static_cast<double>(bytes) * 8.0 / seconds / 1e6;
}

// ---------------------------------------------------------------------------
// Sender
// ---------------------------------------------------------------------------

SenderResult run_sender(const SenderOptions& options, std::span<const std::uint8_t> object,
                        int listener, const std::atomic<bool>* cancel) {
  SenderResult result;
  result.status = TransferStatus::kBadOptions;
  auto& metrics = telemetry::MetricsRegistry::global();
  OutcomeScope outcome(metrics, "sender", result.status);
  const auto peer = net::make_addr(options.receiver_host, options.data_port);
  result.error = check_options(options.data_port, options.control_port, peer.has_value(),
                               options.endpoint, object.size(), "cannot send an empty object");
  if (!result.error.empty()) return result;
  const auto stripe = resolve_stripe(
      options.stripe, {static_cast<std::int64_t>(object.size()), options.endpoint.packet_bytes},
      result.error);
  if (!stripe.active()) return result;
  // Sequence numbers below are stripe-local; only the payload offset
  // into the (whole-object) span goes through the plan.
  const stripe::StripePlan& plan = *stripe.plan;
  const fobs::core::TransferSpec spec = plan.stripe_spec(stripe.index);
  result.packets_needed = spec.packet_count();

  std::optional<fobs::net::FaultInjector> faults;
  if (!resolve_fault_plan(options.endpoint.fault_plan, faults, result.error)) return result;

  // Datagram channel for data out / ACKs in. Left unbound — the kernel
  // assigns the source port on first send and the receiver replies to
  // it. Receive slots are sized for the largest ACK datagram.
  result.status = TransferStatus::kSocketError;
  std::string io_error;
  auto channel = fobs::net::DatagramChannel::open(
      options.endpoint.io, static_cast<std::size_t>(kMaxDatagramBytes), std::nullopt,
      &io_error);
  if (!channel.valid()) {
    result.error = io_error;
    return result;
  }

  // The control channel (completion + resume frames) is accepted on a
  // listener the engine bound before the session was queued.
  if (listener < 0) {
    result.error = "tcp listen failed";
    return result;
  }

  fobs::core::SenderSession session(spec, options.core);
  fobs::core::SenderCore& core = session.core();
  if (faults) session.set_fault_injector(&*faults);
  // Per-batch scatter-gather state. Headers live in `headers` so every
  // view's iovec stays valid for the whole send_batch call; payload
  // views point straight into the caller's (typically mmap'd) object —
  // zero payload copies — except when a fault corrupts a private copy.
  std::vector<std::array<std::uint8_t, kDataHeaderSize>> headers;
  const std::size_t datagram_bytes =
      kDataHeaderSize + static_cast<std::size_t>(spec.packet_bytes);
  std::vector<fobs::net::DatagramView> views;
  std::vector<std::vector<std::uint8_t>> corrupt_payloads;
  std::vector<fobs::net::RecvView> ack_views(
      static_cast<std::size_t>(options.endpoint.io.recv_batch));
  // Hands `n` received ACK datagrams to the session; an undecodable one
  // (corrupted in flight, or garbage) arrives there as null.
  auto take_acks = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const auto& datagram = ack_views[static_cast<std::size_t>(i)].data;
      const auto ack = decode_ack(datagram.data(), datagram.size());
      session.on_ack(ack ? &*ack : nullptr);
    }
  };

  Fd control;
  std::vector<std::uint8_t> control_buf;
  const auto start = Clock::now();
  arm_stall(session, 0, options.endpoint);
  fobs::telemetry::EventTracer* tracer = options.endpoint.tracer;
  session.set_tracer(tracer);
  session.begin_trace([start] { return ns_since(start); });
  metrics.counter("fobs.posix.sender.transfers").inc();
  result.status = TransferStatus::kRunning;

  while (!session.completed()) {
    if (must_stop(result, session, cancel, start)) break;

    // Accept / read the control channel. A restarted receiver shows up
    // as EOF on the old connection followed by a fresh accept; its
    // resume frame (full bitmap) then pre-acks everything the previous
    // incarnation stored.
    if (!control.valid()) {
      control = net::accept_until(listener, Clock::time_point::min());
      if (control.valid() && session.on_control_connected()) {
        // Discard ACKs queued by the previous incarnation (an early ACK
        // from the new one goes too; the next snapshot ACK supersedes
        // it). The epoch filter handles stale ACKs still in flight.
        while (channel.recv_batch(ack_views, nullptr) > 0) {
        }
      }
    } else {
      std::uint8_t tmp[4096];
      const ssize_t n = ::recv(control.get(), tmp, sizeof tmp, MSG_DONTWAIT);
      if (n > 0) {
        control_buf.insert(control_buf.end(), tmp, tmp + n);
      } else if (n == 0 ||
                 (n < 0 && errno != EWOULDBLOCK && errno != EAGAIN && errno != EINTR)) {
        control.reset();
        control_buf.clear();
      }
      // Parse whole frames off the buffered stream.
      while (control_buf.size() >= 8) {
        const std::uint64_t token = util::get_u64(control_buf.data());
        if (token == kCompletionToken) {
          session.on_completion();
          break;
        }
        if (token == kHelloToken) {
          if (control_buf.size() < kHelloFrameSize) break;  // wait for the rest
          session.on_hello(static_cast<std::uint32_t>(util::get_u64(control_buf.data() + 8)));
          control_buf.erase(control_buf.begin(),
                            control_buf.begin() + static_cast<std::ptrdiff_t>(kHelloFrameSize));
          continue;
        }
        if (token != kResumeToken) {
          // Desynced or garbage stream: drop the connection and let the
          // receiver re-establish it cleanly.
          control.reset();
          control_buf.clear();
          break;
        }
        const std::size_t frame_size = resume_frame_size(spec.packet_count());
        if (control_buf.size() < frame_size) break;  // wait for the rest
        const auto frame = decode_resume(control_buf.data(), frame_size);
        control_buf.erase(control_buf.begin(),
                          control_buf.begin() + static_cast<std::ptrdiff_t>(frame_size));
        if (frame) {
          session.on_resume(frame->bitmap.data(), frame->bitmap.size(), frame->packet_count);
        }
      }
      if (session.completed()) break;
    }

    // Phase 2: one non-blocking batched drain of the ACK socket.
    take_acks(channel.recv_batch(ack_views, nullptr));

    // The first control accept gates data (see docs/PROTOCOL.md): until
    // then the receiver's data port may not be bound yet.
    if (!session.connected() || core.all_acked()) {
      // Nothing useful to send; sleep on the actual fds (fresher ACKs
      // on the data socket, the completion token on the control side)
      // instead of napping a fixed interval, so completion latency does
      // not quantize to a nap period. Bounded at 10 ms so the
      // cancel/stall checks keep running.
      pollfd pfds[2] = {{channel.fd(), POLLIN, 0},
                        {control.valid() ? control.get() : listener, POLLIN, 0}};
      ::poll(pfds, 2, 10);
      continue;
    }

    // Phase 1: gather one FOBS batch as scatter-gather views (header
    // buffer + a pointer into the object) and push it with as few send
    // syscalls as the channel can manage.
    const int batch = core.current_batch_size();
    const int capacity = channel.segment_capacity(datagram_bytes);
    headers.resize(static_cast<std::size_t>(std::max({batch, capacity, 1})));
    views.clear();
    corrupt_payloads.clear();
    int selected = 0;
    bool crash_pending = false;
    bool first_pass = true;  // every packet selected so far is a first transmission
    // Another whole batch joins this send only while the first pass
    // runs: an ACK can mark only packets already sent, so the circular
    // policy picks the same packets whenever ACKs are read. The send
    // must fit one segmented message, and the packets sent but not yet
    // acked (resumed packets were never sent) stay within
    // kMaxBatchDatagrams, so a receiver that drains slowly, or not at
    // all, sets the pace.
    auto gather_more = [&] {
      const auto& stats = core.stats();
      const std::int64_t unacked =
          stats.packets_sent - (stats.packets_acked - session.stats().packets_resumed);
      return first_pass && core.pacing_gap() == fobs::util::Duration::zero() &&
             selected + batch <= capacity && unacked + batch <= fobs::net::kMaxBatchDatagrams;
    };
    for (int limit = batch; selected < limit && !core.all_acked();) {
      if (session.crash_due()) {
        crash_pending = true;  // what is already gathered still goes out
        break;
      }
      const auto seq = core.select_next();
      if (!seq) break;
      first_pass = first_pass && core.send_counts()[static_cast<std::size_t>(*seq)] == 1;
      const std::int64_t len = spec.payload_bytes(*seq);
      const std::uint8_t* payload = object.data() + plan.global_offset(stripe.index, *seq);
      auto& header_buf = headers[static_cast<std::size_t>(selected)];
      encode_data_header(DataHeader{*seq, payload_crc(payload, static_cast<std::size_t>(len))},
                         header_buf.data());
      const auto fate = session.next_data_fate();
      if (fate.corrupt) {
        // Flip a byte in a private copy after the CRC was computed, so
        // the receiver's checksum test fails deterministically — on
        // exactly this datagram of the batch. The mapped object itself
        // must stay pristine.
        auto& copy = corrupt_payloads.emplace_back(payload, payload + len);
        copy[0] ^= 0xFF;
        payload = copy.data();
      }
      for (int copy = 0; copy < fate.copies; ++copy) {
        views.push_back({std::span<const std::uint8_t>(header_buf),
                         std::span<const std::uint8_t>(payload,
                                                       static_cast<std::size_t>(len))});
      }
      ++selected;
      if (selected == limit && gather_more()) limit += batch;
    }
    if (!views.empty() && !channel.send_batch(views, *peer, &io_error)) {
      result.status = TransferStatus::kSocketError;
      result.error = io_error;
      break;
    }
    if (tracer != nullptr && selected > 0) {
      tracer->record(telemetry::EventType::kBatchSent, -1, selected);
    }
    if (crash_pending) {
      result.status = TransferStatus::kCrashed;
      result.error = "injected crash";
      break;
    }

    // The adaptive extension's pacing gap, when enabled.
    const auto gap = core.pacing_gap();
    if (gap > fobs::util::Duration::zero()) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(gap.ns()));
    }
  }

  // Drain ACK datagrams still queued at exit so the corrupt/stale drop
  // counters reflect everything that actually arrived. A fast transfer
  // can complete over the control channel with most ACKs unread; their
  // classification must not depend on that race.
  if (session.completed()) {
    int drained = 0;
    while ((drained = channel.recv_batch(ack_views, nullptr)) > 0) take_acks(drained);
  }

  const double elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  result.elapsed_seconds = elapsed;
  result.packets_sent = core.stats().packets_sent;
  result.waste = core.waste();
  const auto& recovery = session.stats();
  result.corrupt_acks_dropped = recovery.corrupt_acks_dropped;
  result.stale_acks_dropped = recovery.stale_acks_dropped;
  result.reconnects = recovery.reconnects;
  result.packets_resumed = recovery.packets_resumed;
  if (session.completed()) {
    result.status = TransferStatus::kCompleted;
    result.goodput_mbps = mbps(spec.object_bytes, elapsed);
    result.error.clear();
    metrics
        .histogram("fobs.posix.sender.elapsed_ms",
                   {1, 10, 100, 1'000, 10'000, 60'000, 600'000})
        .observe(static_cast<std::int64_t>(elapsed * 1e3));
  }
  end_trace(tracer, result.status);
  if (faults) metrics.counter("fobs.fault.injected").inc(faults->total_injected());
  metrics.counter("fobs.posix.sender.packets_sent").inc(result.packets_sent);
  result.io = channel.stats();
  return result;
}

// ---------------------------------------------------------------------------
// Receiver
// ---------------------------------------------------------------------------

ReceiverResult run_receiver(const ReceiverOptions& options, std::span<std::uint8_t> buffer,
                            net::Fd socket, const std::atomic<bool>* cancel) {
  ReceiverResult result;
  result.status = TransferStatus::kBadOptions;
  auto& metrics = telemetry::MetricsRegistry::global();
  OutcomeScope outcome(metrics, "receiver", result.status);
  result.error = check_options(
      options.data_port, options.control_port,
      net::make_addr(options.sender_host, options.control_port).has_value(), options.endpoint,
      buffer.size(), "cannot receive into an empty buffer");
  if (!result.error.empty()) return result;
  const fobs::core::TransferSpec whole{static_cast<std::int64_t>(buffer.size()),
                                       options.endpoint.packet_bytes};
  const auto stripe = resolve_stripe(options.stripe, whole, result.error);
  if (!stripe.active()) return result;
  const stripe::StripePlan& plan = *stripe.plan;
  const fobs::core::TransferSpec spec = plan.stripe_spec(stripe.index);

  std::optional<fobs::net::FaultInjector> faults;
  if (!resolve_fault_plan(options.endpoint.fault_plan, faults, result.error)) return result;
  metrics.counter("fobs.posix.receiver.transfers").inc();

  // Datagram channel over the data socket bound before its port was
  // named to the sender. Receive slots are sized for exactly one full
  // data packet; anything larger is truncated by the kernel and
  // rejected as garbage below.
  result.status = TransferStatus::kSocketError;
  if (!socket.valid()) {
    result.error = "udp bind failed on port " + std::to_string(options.data_port);
    return result;
  }
  std::string io_error;
  auto channel = fobs::net::DatagramChannel::open(
      options.endpoint.io,
      kDataHeaderSize + static_cast<std::size_t>(options.endpoint.packet_bytes),
      std::move(socket), &io_error);
  if (!channel.valid()) {
    result.error = io_error;
    return result;
  }

  const auto start = Clock::now();
  const auto deadline = start + std::chrono::milliseconds(options.endpoint.timeout_ms);
  fobs::telemetry::EventTracer* tracer = options.endpoint.tracer;
  // Each POSIX endpoint runs its own plan, so arrivals draw its data
  // schedule here.
  fobs::core::ReceiverSession session(spec, options.core, /*draws_data_faults=*/true);
  const fobs::core::ReceiverCore& core = session.core();
  if (faults) session.set_fault_injector(&*faults);
  session.set_tracer(tracer);
  session.begin_trace([start] { return ns_since(start); });
  result.status = TransferStatus::kRunning;

  // Resume from the union of the base's checkpoint files; their bytes
  // must already be in `buffer` (e.g. a file-backed mapping).
  const std::string& base = options.checkpoint_path;
  if (!base.empty()) {
    const auto known = load_checkpoints(base, whole.object_bytes, whole.packet_bytes);
    result.packets_restored =
        session.open_record(plan, stripe.index, known ? known->bitmap.data() : nullptr,
                            known ? known->bitmap.size() : 0);
  }
  auto save_record = [&] {
    const auto& record = session.record();
    Checkpoint checkpoint;
    checkpoint.object_bytes = whole.object_bytes;
    checkpoint.packet_bytes = whole.packet_bytes;
    checkpoint.received_count = static_cast<std::int64_t>(record.count());
    checkpoint.bitmap = record.extract_range(0, record.size());
    save_checkpoint(checkpoint_file(base, plan.stripe_count(), stripe.index), checkpoint);
  };

  // Incarnation epoch, announced by the hello on each control
  // connection: monotonic time xor'd with the pid makes a collision
  // across incarnations vanishingly unlikely; zero means "no epoch".
  std::uint32_t epoch = static_cast<std::uint32_t>(
      std::chrono::steady_clock::now().time_since_epoch().count() ^
      (static_cast<std::uint64_t>(::getpid()) << 16));
  if (epoch == 0) epoch = 1;
  session.set_epoch(epoch);
  std::uint8_t hello[kHelloFrameSize];
  util::put_u64(hello, kHelloToken);
  util::put_u64(hello + 8, epoch);

  // Control channel: connect with capped exponential backoff (the
  // sender may not be up yet, or we may be a restarted incarnation).
  Fd control =
      net::connect_with_backoff(options.sender_host, options.control_port, deadline, cancel);
  if (!control.valid()) {
    if (cancel_requested(cancel)) {
      result.status = TransferStatus::kCancelled;
      result.error = "cancelled";
    } else {
      result.status = TransferStatus::kPeerLost;
      result.error = "control connect timeout";
    }
    end_trace(tracer, result.status);
    return result;
  }
  if (!net::send_all(control.get(), hello, sizeof hello, deadline)) {
    FOBS_WARN("fobs.receiver", "hello frame send failed; sender keeps its previous epoch");
  }

  // Announce a restored bitmap so the sender skips what we already have.
  if (session.resume_due()) {
    const auto bitmap = core.received().extract_range(
        0, static_cast<std::size_t>(spec.packet_count()));
    const auto frame = encode_resume(spec.packet_count(), result.packets_restored, bitmap);
    if (!net::send_all(control.get(), frame.data(), frame.size(), deadline)) {
      FOBS_WARN("fobs.receiver", "resume frame send failed; sender will re-send everything");
    }
  }

  std::vector<fobs::net::RecvView> rx_views(
      static_cast<std::size_t>(options.endpoint.io.recv_batch));
  sockaddr_in sender_addr{};  // learned from the first *valid* data packet
  // The stall budget measures the data-transfer phase only: a slow
  // control connect must not be double-counted as empty stall intervals
  // the moment data starts flowing.
  arm_stall(session, ns_since(start), options.endpoint);

  while (!core.complete() && !session.crashed()) {
    if (must_stop(result, session, cancel, start)) break;
    if (session.crash_due()) break;
    const int n_rx = channel.recv_batch(rx_views, &io_error);
    if (n_rx < 0) {
      result.status = TransferStatus::kSocketError;
      result.error = io_error;
      break;
    }
    if (n_rx == 0) {
      pollfd pfd{channel.fd(), POLLIN, 0};
      ::poll(&pfd, 1, 10);
      continue;
    }
    for (int i = 0; i < n_rx && !core.complete(); ++i) {
      // The crash schedule fires mid-batch too: datagrams already
      // processed from this recvmmsg stay processed, the rest are lost
      // with the incarnation — exactly what a kill -9 between two
      // recvfrom calls used to look like.
      if (session.crash_due()) break;
      const std::uint8_t* data = rx_views[static_cast<std::size_t>(i)].data.data();
      const std::size_t size = rx_views[static_cast<std::size_t>(i)].data.size();
      const auto header = decode_data_header(data, size);
      if (!header || header->seq < 0 || header->seq >= spec.packet_count()) continue;
      const std::int64_t len = spec.payload_bytes(header->seq);
      if (size < kDataHeaderSize + static_cast<std::size_t>(len)) continue;  // truncated
      const bool checksum_ok =
          payload_crc(data + kDataHeaderSize, static_cast<std::size_t>(len)) ==
          header->payload_crc;
      // Only a fully validated packet may teach us where ACKs go — a
      // garbage datagram must not be able to redirect the ACK stream.
      if (checksum_ok) sender_addr = rx_views[static_cast<std::size_t>(i)].from;
      const auto admitted = session.admit(header->seq, checksum_ok);
      if (admitted.newly_received) {
        std::memcpy(buffer.data() + plan.global_offset(stripe.index, header->seq),
                    data + kDataHeaderSize, static_cast<std::size_t>(len));
      }
      if (admitted.ack_due) {
        const auto ack = session.next_ack();
        auto bytes = encode_ack(ack.message);
        // Smash the magic so the sender counts + rejects it.
        if (ack.fate.corrupt) bytes[0] ^= 0xFF;
        if (ack.fate.copies > 0) {
          // A duplicated ACK goes out as one two-view batch — one
          // syscall where the per-packet path used two sendto calls.
          const fobs::net::DatagramView ack_view{
              std::span<const std::uint8_t>(bytes.data(), bytes.size())};
          std::array<fobs::net::DatagramView, 2> ack_batch{ack_view, ack_view};
          channel.send_batch(
              std::span<const fobs::net::DatagramView>(
                  ack_batch.data(), static_cast<std::size_t>(ack.fate.copies)),
              sender_addr, nullptr);
        }
        if (tracer != nullptr) {
          tracer->record(telemetry::EventType::kAckSent,
                         static_cast<std::int64_t>(ack.message.ack_no),
                         static_cast<std::int64_t>(bytes.size()));
        }
        if (ack.save_record) save_record();
      }
    }
  }
  if (session.crashed()) {
    // Simulated kill -9: abandon the transfer without cleanup. Any
    // checkpoint written so far stays behind for the next incarnation.
    result.status = TransferStatus::kCrashed;
    result.error = "injected crash";
  }

  if (core.complete()) {
    // Deliver the completion token; if the control connection died in
    // the meantime, reconnect (with backoff) and retry a few times.
    std::uint8_t token[8];
    util::put_u64(token, kCompletionToken);
    const auto token_deadline = Clock::now() + std::chrono::seconds(2);
    bool delivered = control.valid() && net::send_all(control.get(), token, sizeof token,
                                                 token_deadline);
    for (int attempt = 0; !delivered && attempt < 3; ++attempt) {
      control = net::connect_with_backoff(options.sender_host, options.control_port,
                                          Clock::now() + std::chrono::seconds(1), cancel);
      if (!control.valid()) continue;
      session.on_control_reconnected();
      // Hello first, as on every control connection.
      delivered = net::send_all(control.get(), hello, sizeof hello,
                           Clock::now() + std::chrono::seconds(1)) &&
                  net::send_all(control.get(), token, sizeof token,
                           Clock::now() + std::chrono::seconds(1));
    }
    result.status = TransferStatus::kCompleted;
    result.error.clear();
    // One stripe: the transfer is done, so no file of the base is worth
    // keeping. A stripe of K > 1 leaves its final record until the
    // launch step sees every stripe complete.
    if (!base.empty()) {
      if (plan.stripe_count() == 1) {
        remove_striped_checkpoints(base);
      } else {
        save_record();
      }
    }
  }
  const double elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  result.elapsed_seconds = elapsed;
  result.packets_received = core.stats().packets_received;
  result.duplicates = core.stats().duplicates;
  result.corrupt_packets_dropped = session.stats().corrupt_packets_dropped;
  result.reconnects = session.stats().reconnects;
  if (result.completed()) result.goodput_mbps = mbps(spec.object_bytes, elapsed);
  end_trace(tracer, result.status);
  if (faults) metrics.counter("fobs.fault.injected").inc(faults->total_injected());
  metrics.counter("fobs.posix.receiver.packets_received").inc(result.packets_received);
  metrics.counter("fobs.posix.receiver.duplicates").inc(result.duplicates);
  result.io = channel.stats();
  return result;
}

}  // namespace detail

}  // namespace fobs::posix
