#include "net/datagram_channel.h"

#include <arpa/inet.h>
#include <netinet/udp.h>
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/log.h"
#include "net/socket.h"
#include "telemetry/metrics.h"

namespace fobs::net {

namespace {

bool retryable_errno(int err) {
  return err == EWOULDBLOCK || err == EAGAIN || err == ENOBUFS || err == EINTR;
}

/// Errors that mean "this kernel does not do batched datagram I/O" —
/// the channel degrades to the fallback path instead of failing.
bool unsupported_errno(int err) { return err == ENOSYS || err == EOPNOTSUPP; }

/// Errors with which the kernel refuses a UDP_SEGMENT message while it
/// would take the same datagrams one per message: EMSGSIZE and EINVAL
/// (a segment over the path MTU, a socket with UDP checksums off), EIO
/// (a device or transform that cannot segment), ENOPROTOOPT and
/// EOPNOTSUPP (no UDP GSO at all).
bool segment_refused_errno(int err) {
  return err == EMSGSIZE || err == EINVAL || err == EIO || err == ENOPROTOOPT ||
         err == EOPNOTSUPP;
}

/// How many datagrams from the front of `batch` one UDP_SEGMENT
/// message carries: a run of equal-size datagrams, closed by the first
/// shorter one (the kernel cuts every segment but the last to the
/// first's size), within kMaxSegments and kMaxSegmentedBytes. An empty
/// datagram never joins a run: as a last segment it would vanish.
std::size_t segment_run(std::span<const DatagramView> batch) {
  const std::size_t segment_bytes = batch[0].size();
  std::size_t run = 1;
  std::size_t run_bytes = segment_bytes;
  while (run < batch.size() && run < static_cast<std::size_t>(kMaxSegments) &&
         batch[run - 1].size() == segment_bytes) {
    const std::size_t next = batch[run].size();
    if (next == 0 || next > segment_bytes || run_bytes + next > kMaxSegmentedBytes) break;
    run_bytes += next;
    ++run;
  }
  return run;
}

void set_error(std::string* error, const char* what) {
  if (error != nullptr) *error = std::string(what) + ": " + std::strerror(errno);
}

/// FOBS_IO_MODE resolves kAuto from the environment so existing
/// binaries can be A/B'd without a recompile.
IoMode resolve_mode(IoMode requested) {
  if (requested != IoMode::kAuto) return requested;
  if (const char* env = std::getenv("FOBS_IO_MODE")) {
    if (std::strcmp(env, "fallback") == 0) return IoMode::kFallback;
    if (std::strcmp(env, "batched") == 0) return IoMode::kBatched;
    if (std::strcmp(env, "auto") != 0 && env[0] != '\0') {
      FOBS_WARN("fobs.net.io", "unknown FOBS_IO_MODE '" << env << "'; using auto");
    }
  }
  return IoMode::kAuto;
}

/// Whether a channel with these options runs batched; nullopt (with
/// `error` filled) when the options are invalid or ask for batching
/// this platform lacks.
std::optional<bool> batched_mode(const IoOptions& io, std::size_t max_datagram_bytes,
                                 std::string* error) {
  const std::string invalid = io.validate();
  if (!invalid.empty()) {
    if (error != nullptr) *error = invalid;
    return std::nullopt;
  }
  if (max_datagram_bytes == 0) {
    if (error != nullptr) *error = "max_datagram_bytes must be positive";
    return std::nullopt;
  }
  const IoMode mode = resolve_mode(io.mode);
#if defined(__linux__)
  return mode != IoMode::kFallback;
#else
  if (mode == IoMode::kBatched) {
    if (error != nullptr) *error = "batched datagram I/O is not available on this platform";
    return std::nullopt;
  }
  return false;
#endif
}

}  // namespace

const char* to_string(IoMode mode) {
  switch (mode) {
    case IoMode::kAuto: return "auto";
    case IoMode::kBatched: return "batched";
    case IoMode::kFallback: return "fallback";
  }
  return "unknown";
}

std::string IoOptions::validate() const {
  if (send_batch < 1 || send_batch > kMaxBatchDatagrams) {
    return "io.send_batch must be in [1, " + std::to_string(kMaxBatchDatagrams) + "]";
  }
  if (recv_batch < 1 || recv_batch > kMaxBatchDatagrams) {
    return "io.recv_batch must be in [1, " + std::to_string(kMaxBatchDatagrams) + "]";
  }
  if (send_buffer_bytes < 0) return "io.send_buffer_bytes must be non-negative";
  if (recv_buffer_bytes < 0) return "io.recv_buffer_bytes must be non-negative";
  return {};
}

DatagramChannel DatagramChannel::open(const IoOptions& io, std::size_t max_datagram_bytes,
                                      std::optional<std::uint16_t> bind_port,
                                      std::string* error) {
  if (!batched_mode(io, max_datagram_bytes, error)) return {};
  Fd socket = bind_port ? bind_udp(*bind_port) : Fd(::socket(AF_INET, SOCK_DGRAM, 0));
  if (!socket.valid()) {
    set_error(error, bind_port ? "udp bind failed" : "udp socket setup failed");
    return {};
  }
  return open(io, max_datagram_bytes, std::move(socket), error);
}

DatagramChannel DatagramChannel::open(const IoOptions& io, std::size_t max_datagram_bytes,
                                      Fd socket, std::string* error) {
  DatagramChannel channel;
  const auto batched_or = batched_mode(io, max_datagram_bytes, error);
  if (!batched_or) return channel;
  const bool batched = *batched_or;
  if (!socket.valid() || !set_nonblocking(socket.get())) {
    set_error(error, "udp socket setup failed");
    return channel;
  }
  if (io.send_buffer_bytes > 0) {
    const int buf = io.send_buffer_bytes;
    ::setsockopt(socket.get(), SOL_SOCKET, SO_SNDBUF, &buf, sizeof buf);
  }
  if (io.recv_buffer_bytes > 0) {
    const int buf = io.recv_buffer_bytes;
    ::setsockopt(socket.get(), SOL_SOCKET, SO_RCVBUF, &buf, sizeof buf);
  }

  // Probe UDP GSO once: a kernel without it rejects the option, and
  // would otherwise ignore the control message and send a whole run as
  // one oversized datagram. Size 0 leaves per-message sizes in charge.
  bool segmenting = false;
#if defined(UDP_SEGMENT)
  if (batched) {
    const int off = 0;
    segmenting = ::setsockopt(socket.get(), SOL_UDP, UDP_SEGMENT, &off, sizeof off) == 0;
  }
#endif

  channel.fd_ = std::move(socket);
  channel.batched_ = batched;
  channel.segmenting_ = segmenting;
  channel.send_batch_limit_ = batched ? io.send_batch : 1;
  channel.recv_batch_limit_ = batched ? io.recv_batch : 1;
  channel.slot_bytes_ = max_datagram_bytes;
  channel.rx_pool_.resize(static_cast<std::size_t>(channel.recv_batch_limit_) *
                          channel.slot_bytes_);
  channel.tx_scratch_.resize(channel.slot_bytes_);
  auto& metrics = fobs::telemetry::MetricsRegistry::global();
  channel.syscalls_metric_ = &metrics.counter("fobs.io.syscalls");
  channel.copy_avoided_metric_ = &metrics.counter("fobs.io.copy_bytes_avoided");
  channel.segmented_metric_ = &metrics.counter("fobs.io.segmented_messages");
  if (batched && !segmenting) metrics.counter("fobs.io.segment_fallbacks").inc();
  channel.per_syscall_metric_ =
      &metrics.histogram("fobs.io.datagrams_per_syscall", {1, 2, 4, 8, 16, 32, 64});
  metrics.counter(batched ? "fobs.io.batched_channels" : "fobs.io.fallback_channels").inc();
  return channel;
}

void DatagramChannel::note_syscall(bool send, int datagrams) {
  if (send) {
    ++stats_.send_syscalls;
    stats_.datagrams_sent += static_cast<std::uint64_t>(datagrams);
  } else {
    ++stats_.recv_syscalls;
    stats_.datagrams_received += static_cast<std::uint64_t>(datagrams);
  }
  syscalls_metric_->inc();
  per_syscall_metric_->observe(datagrams);
}

bool DatagramChannel::wait_writable() {
  ++stats_.send_would_block;
  pollfd pfd{fd_.get(), POLLOUT, 0};
  return ::poll(&pfd, 1, 10) >= 0 || errno == EINTR;
}

bool DatagramChannel::send_fallback(const DatagramView& datagram, const sockaddr_in& dest,
                                    std::string* error) {
  // The classic path: assemble header + payload into one buffer (the
  // per-packet copy the gather path avoids), then one sendto per
  // datagram.
  const std::size_t total = datagram.size();
  const std::uint8_t* data = datagram.header.data();
  if (!datagram.payload.empty()) {
    if (total > tx_scratch_.size()) tx_scratch_.resize(total);
    std::memcpy(tx_scratch_.data(), datagram.header.data(), datagram.header.size());
    std::memcpy(tx_scratch_.data() + datagram.header.size(), datagram.payload.data(),
                datagram.payload.size());
    data = tx_scratch_.data();
  }
  while (true) {
    const ssize_t sent = ::sendto(fd_.get(), data, total, 0,
                                  reinterpret_cast<const sockaddr*>(&dest), sizeof dest);
    if (sent >= 0) {
      note_syscall(/*send=*/true, 1);
      stats_.bytes_sent += static_cast<std::int64_t>(total);
      return true;
    }
    if (retryable_errno(errno)) {
      if (!wait_writable()) {
        set_error(error, "poll failed");
        return false;
      }
      continue;
    }
    set_error(error, "sendto failed");
    return false;
  }
}

int DatagramChannel::segment_capacity(std::size_t datagram_bytes) const {
  if (!segmenting_ || datagram_bytes == 0) return 1;
  const auto by_bytes = static_cast<int>(
      std::min<std::size_t>(kMaxSegmentedBytes / datagram_bytes, kMaxSegments));
  return std::max(1, std::min(by_bytes, send_batch_limit_));
}

bool DatagramChannel::send_batch(std::span<const DatagramView> batch, const sockaddr_in& dest,
                                 std::string* error) {
  if (!fd_.valid()) {
    if (error != nullptr) *error = "channel not open";
    return false;
  }
  std::size_t off = 0;
#if defined(__linux__)
  while (batched_ && off < batch.size()) {
    const std::size_t want =
        std::min(batch.size() - off, static_cast<std::size_t>(send_batch_limit_));
    mmsghdr msgs[kMaxBatchDatagrams];
    iovec iovs[kMaxBatchDatagrams * 2];
    int segments[kMaxBatchDatagrams];  // datagrams carried by each message
#if defined(UDP_SEGMENT)
    alignas(cmsghdr) std::uint8_t controls[kMaxBatchDatagrams]
                                          [CMSG_SPACE(sizeof(std::uint16_t))];
#endif
    int message_count = 0;
    std::size_t iov_count = 0;
    for (std::size_t i = 0; i < want;) {
      const std::size_t run = segmenting_ ? segment_run(batch.subspan(off + i, want - i)) : 1;
      mmsghdr& msg = msgs[message_count];
      std::memset(&msg, 0, sizeof msg);
      msg.msg_hdr.msg_name = const_cast<sockaddr_in*>(&dest);
      msg.msg_hdr.msg_namelen = sizeof dest;
      msg.msg_hdr.msg_iov = &iovs[iov_count];
      for (std::size_t k = 0; k < run; ++k) {
        const DatagramView& d = batch[off + i + k];
        iovs[iov_count++] = {const_cast<std::uint8_t*>(d.header.data()), d.header.size()};
        if (!d.payload.empty()) {
          iovs[iov_count++] = {const_cast<std::uint8_t*>(d.payload.data()), d.payload.size()};
        }
      }
      msg.msg_hdr.msg_iovlen = static_cast<std::size_t>(&iovs[iov_count] - msg.msg_hdr.msg_iov);
#if defined(UDP_SEGMENT)
      if (run > 1) {
        msg.msg_hdr.msg_control = controls[message_count];
        msg.msg_hdr.msg_controllen = sizeof controls[message_count];
        cmsghdr* cm = CMSG_FIRSTHDR(&msg.msg_hdr);
        cm->cmsg_level = SOL_UDP;
        cm->cmsg_type = UDP_SEGMENT;
        cm->cmsg_len = CMSG_LEN(sizeof(std::uint16_t));
        const auto gso_size = static_cast<std::uint16_t>(batch[off + i].size());
        std::memcpy(CMSG_DATA(cm), &gso_size, sizeof gso_size);
      }
#endif
      segments[message_count++] = static_cast<int>(run);
      i += run;
    }
    const int sent = ::sendmmsg(fd_.get(), msgs, static_cast<unsigned>(message_count), 0);
    if (sent > 0) {
      std::size_t datagrams = 0;
      std::uint64_t segmented = 0;
      for (int m = 0; m < sent; ++m) {
        datagrams += static_cast<std::size_t>(segments[m]);
        if (segments[m] > 1) ++segmented;
      }
      std::int64_t avoided = 0;
      std::int64_t bytes = 0;
      for (std::size_t i = 0; i < datagrams; ++i) {
        const DatagramView& d = batch[off + i];
        avoided += static_cast<std::int64_t>(d.payload.size());
        bytes += static_cast<std::int64_t>(d.size());
      }
      note_syscall(/*send=*/true, static_cast<int>(datagrams));
      stats_.bytes_sent += bytes;
      stats_.copy_bytes_avoided += avoided;
      stats_.segmented_messages += segmented;
      copy_avoided_metric_->inc(avoided);
      if (segmented > 0) segmented_metric_->inc(static_cast<std::int64_t>(segmented));
      off += datagrams;
      continue;
    }
    if (retryable_errno(errno)) {
      if (!wait_writable()) {
        set_error(error, "poll failed");
        return false;
      }
      continue;
    }
    // The refused message is the call's first; resend its datagrams,
    // and everything after them, one per message.
    if (segments[0] > 1 && segment_refused_errno(errno)) {
      FOBS_WARN("fobs.net.io", "kernel refused a UDP_SEGMENT message ("
                                   << std::strerror(errno)
                                   << "); sending one datagram per message");
      segmenting_ = false;
      fobs::telemetry::MetricsRegistry::global().counter("fobs.io.segment_fallbacks").inc();
      continue;
    }
    if (unsupported_errno(errno)) {
      FOBS_WARN("fobs.net.io", "sendmmsg unsupported at runtime; degrading to sendto");
      batched_ = false;
      break;  // remaining datagrams go out the fallback path below
    }
    set_error(error, "sendmmsg failed");
    return false;
  }
#endif
  for (; off < batch.size(); ++off) {
    if (!send_fallback(batch[off], dest, error)) return false;
  }
  return true;
}

int DatagramChannel::recv_batch(std::span<RecvView> out, std::string* error) {
  if (!fd_.valid()) {
    if (error != nullptr) *error = "channel not open";
    return -1;
  }
  if (out.empty()) return 0;
  const int want = static_cast<int>(std::min<std::size_t>(
      out.size(), static_cast<std::size_t>(recv_batch_limit_)));
#if defined(__linux__)
  if (batched_) {
    mmsghdr msgs[kMaxBatchDatagrams];
    iovec iovs[kMaxBatchDatagrams];
    sockaddr_in froms[kMaxBatchDatagrams];
    std::memset(msgs, 0, static_cast<std::size_t>(want) * sizeof(mmsghdr));
    for (int i = 0; i < want; ++i) {
      iovs[i] = {rx_pool_.data() + static_cast<std::size_t>(i) * slot_bytes_, slot_bytes_};
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
      msgs[i].msg_hdr.msg_name = &froms[i];
      msgs[i].msg_hdr.msg_namelen = sizeof froms[i];
    }
    const int got =
        ::recvmmsg(fd_.get(), msgs, static_cast<unsigned>(want), MSG_DONTWAIT, nullptr);
    if (got > 0) {
      std::int64_t bytes = 0;
      for (int i = 0; i < got; ++i) {
        out[static_cast<std::size_t>(i)] = RecvView{
            std::span<std::uint8_t>(rx_pool_.data() + static_cast<std::size_t>(i) * slot_bytes_,
                                    msgs[i].msg_len),
            froms[i]};
        bytes += msgs[i].msg_len;
      }
      note_syscall(/*send=*/false, got);
      stats_.bytes_received += bytes;
      return got;
    }
    if (errno == EWOULDBLOCK || errno == EAGAIN || errno == EINTR) return 0;
    if (unsupported_errno(errno)) {
      FOBS_WARN("fobs.net.io", "recvmmsg unsupported at runtime; degrading to recvfrom");
      batched_ = false;
    } else {
      set_error(error, "recvmmsg failed");
      return -1;
    }
  }
#endif
  sockaddr_in from{};
  socklen_t from_len = sizeof from;
  const ssize_t n = ::recvfrom(fd_.get(), rx_pool_.data(), slot_bytes_, MSG_DONTWAIT,
                               reinterpret_cast<sockaddr*>(&from), &from_len);
  if (n >= 0) {
    out[0] = RecvView{std::span<std::uint8_t>(rx_pool_.data(), static_cast<std::size_t>(n)),
                      from};
    note_syscall(/*send=*/false, 1);
    stats_.bytes_received += n;
    return 1;
  }
  if (errno == EWOULDBLOCK || errno == EAGAIN || errno == EINTR) return 0;
  set_error(error, "recvfrom failed");
  return -1;
}

}  // namespace fobs::net
